package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// SchemaSpec names the code behind one frozen wire/key schema: the
// structs whose serialized shape, the functions whose key/format
// strings, and the constants whose values must not drift without a
// deliberate version bump.
type SchemaSpec struct {
	// Schema names what the fingerprint protects ("lnuca-run-v1",
	// "lnuca-job", ...). It is the manifest key. A schema whose version
	// is one of its Consts leaves the version out of the name.
	Schema string
	// Pkg is the import path (matched exactly or by suffix) of the
	// package defining the schema.
	Pkg string
	// Structs are type names whose field set, types, and json tags are
	// part of the schema.
	Structs []string
	// Funcs are functions ("Key") or methods ("Job.Key") whose
	// format/key string literals are part of the schema — any literal
	// in their bodies containing a '%' verb or a '|' separator.
	Funcs []string
	// Consts are package constants whose values are part of the schema.
	Consts []string
}

// SchemaFingerprint is the canonical shape of one schema, as stored in
// the manifest and as recomputed from source.
type SchemaFingerprint struct {
	Structs map[string][]string `json:"structs,omitempty"` // type -> field lines
	Formats map[string][]string `json:"formats,omitempty"` // func -> format literals, in source order
	Consts  map[string]string   `json:"consts,omitempty"`  // const -> value
}

// SchemaManifest maps schema names to committed fingerprints; it is the
// parsed form of internal/lint/schemas.json.
type SchemaManifest map[string]*SchemaFingerprint

// ParseManifest decodes a schemas.json document.
func ParseManifest(data []byte) (SchemaManifest, error) {
	var m SchemaManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("lint: parsing schema manifest: %w", err)
	}
	return m, nil
}

// SchemaStable returns the analyzer that recomputes every SchemaSpec
// fingerprint from the type-checked source and fails when it differs
// from the committed manifest: renaming a keyed field, changing a json
// tag, or editing a key format string is caught at vet time, before any
// stale cache entry or foreign decoder can misread it. Legitimate
// changes bump the schema version and regenerate the manifest
// (go generate ./internal/lint).
func SchemaStable(manifest SchemaManifest, specs []SchemaSpec) *Analyzer {
	return &Analyzer{
		Name: "schemastable",
		Doc:  "freeze the serialized shape of versioned schemas against the committed manifest",
		Run: func(pass *Pass) error {
			for _, spec := range specs {
				if !pathMatches(pass.Pkg.Path(), []string{spec.Pkg}) {
					continue
				}
				checkSchema(pass, spec, manifest[spec.Schema])
			}
			return nil
		},
	}
}

// Fingerprint computes the current fingerprint of one spec from a
// loaded package. Shared by the analyzer and the -write-schemas
// generator.
func Fingerprint(pkg *Package, spec SchemaSpec) (*SchemaFingerprint, error) {
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
	fp := &SchemaFingerprint{
		Structs: map[string][]string{},
		Formats: map[string][]string{},
		Consts:  map[string]string{},
	}
	for _, name := range spec.Structs {
		lines, _, err := structLines(pass, name)
		if err != nil {
			return nil, err
		}
		fp.Structs[name] = lines
	}
	for _, name := range spec.Funcs {
		lits, _, err := formatLiterals(pass, name)
		if err != nil {
			return nil, err
		}
		fp.Formats[name] = lits
	}
	for _, name := range spec.Consts {
		v, _, err := constValue(pass, name)
		if err != nil {
			return nil, err
		}
		fp.Consts[name] = v
	}
	return fp, nil
}

// checkSchema compares the recomputed fingerprint against the manifest
// entry, reporting one precise diagnostic per drifted element.
func checkSchema(pass *Pass, spec SchemaSpec, want *SchemaFingerprint) {
	pos := func(p token.Pos) token.Pos {
		if p != token.NoPos {
			return p
		}
		if len(pass.Files) > 0 {
			return pass.Files[0].Pos()
		}
		return token.NoPos
	}
	if want == nil {
		pass.Report(pos(token.NoPos), "schema %s has no manifest entry; regenerate with `go generate ./internal/lint`", spec.Schema)
		return
	}
	for _, name := range spec.Structs {
		lines, at, err := structLines(pass, name)
		if err != nil {
			pass.Report(pos(at), "schema %s: %v (renamed or removed? bump the schema version and regenerate the manifest)", spec.Schema, err)
			continue
		}
		reportDrift(pass, pos(at), spec.Schema, "struct "+name, want.Structs[name], lines)
	}
	for _, name := range spec.Funcs {
		lits, at, err := formatLiterals(pass, name)
		if err != nil {
			pass.Report(pos(at), "schema %s: %v", spec.Schema, err)
			continue
		}
		reportDrift(pass, pos(at), spec.Schema, "key/format strings of "+name, want.Formats[name], lits)
	}
	for _, name := range spec.Consts {
		v, at, err := constValue(pass, name)
		if err != nil {
			pass.Report(pos(at), "schema %s: %v", spec.Schema, err)
			continue
		}
		if w := want.Consts[name]; w != v {
			pass.Report(pos(at), "schema %s: const %s = %s drifted from manifest value %s; bump the schema version and regenerate the manifest", spec.Schema, name, v, w)
		}
	}
}

// reportDrift diffs two ordered line sets and reports what changed.
func reportDrift(pass *Pass, at token.Pos, schema, what string, want, got []string) {
	if reflect.DeepEqual(want, got) {
		return
	}
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	var added, removed []string
	for _, g := range got {
		if !wantSet[g] {
			added = append(added, g)
		}
	}
	for _, w := range want {
		if !gotSet[w] {
			removed = append(removed, w)
		}
	}
	detail := ""
	switch {
	case len(added) > 0 && len(removed) > 0:
		detail = fmt.Sprintf(": +{%s} -{%s}", strings.Join(added, "; "), strings.Join(removed, "; "))
	case len(added) > 0:
		detail = fmt.Sprintf(": +{%s}", strings.Join(added, "; "))
	case len(removed) > 0:
		detail = fmt.Sprintf(": -{%s}", strings.Join(removed, "; "))
	default:
		detail = " (order changed)"
	}
	pass.Report(at, "schema %s: %s drifted from the committed manifest%s — bump the schema version or `go generate ./internal/lint`", schema, what, detail)
}

// structLines renders the serialized shape of a named struct: one line
// per field encoding/json can reach (exported, or embedded) with name,
// type (package-qualified), and json tag.
func structLines(pass *Pass, name string) ([]string, token.Pos, error) {
	obj := pass.Pkg.Scope().Lookup(name)
	if obj == nil {
		return nil, token.NoPos, fmt.Errorf("struct %s not found in %s", name, pass.Pkg.Path())
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, obj.Pos(), fmt.Errorf("%s is not a struct", name)
	}
	qual := func(p *types.Package) string { return p.Name() }
	lines := make([]string, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() && !f.Embedded() {
			continue // encoding/json never sees it: no part of the serialized shape
		}
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		lines = append(lines, fmt.Sprintf("%s %s json:%q", f.Name(), types.TypeString(f.Type(), qual), tag))
	}
	return lines, obj.Pos(), nil
}

// formatLiterals collects, in source order, every string literal inside
// the named function's body that looks like a key or format string
// (contains a '%' verb or a '|' separator). name is "Func" or
// "Recv.Method".
func formatLiterals(pass *Pass, name string) ([]string, token.Pos, error) {
	recv, fname := "", name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		recv, fname = name[:i], name[i+1:]
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fname || fd.Body == nil {
				continue
			}
			if recv != "" {
				fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				named := recvNamed(fn)
				if named == nil || named.Obj().Name() != recv {
					continue
				}
			} else if fd.Recv != nil {
				continue
			}
			var lits []string
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				bl, ok := n.(*ast.BasicLit)
				if !ok || bl.Kind != token.STRING {
					return true
				}
				if tv, ok := pass.Info.Types[bl]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					s := constant.StringVal(tv.Value)
					if strings.ContainsAny(s, "%|") {
						lits = append(lits, s)
					}
				}
				return true
			})
			return lits, fd.Pos(), nil
		}
	}
	return nil, token.NoPos, fmt.Errorf("function %s not found in %s", name, pass.Pkg.Path())
}

// constValue returns the value of a package constant as a string
// (exact: never the truncated display form).
func constValue(pass *Pass, name string) (string, token.Pos, error) {
	obj := pass.Pkg.Scope().Lookup(name)
	c, ok := obj.(*types.Const)
	if !ok {
		return "", token.NoPos, fmt.Errorf("const %s not found in %s", name, pass.Pkg.Path())
	}
	if c.Val().Kind() == constant.String {
		return constant.StringVal(c.Val()), obj.Pos(), nil
	}
	return c.Val().ExactString(), obj.Pos(), nil
}

// WriteManifest renders a manifest as stable, indented JSON (sorted
// keys via encoding/json's map ordering) for committing to
// internal/lint/schemas.json.
func WriteManifest(m SchemaManifest) ([]byte, error) {
	// Keep deterministic output: encoding/json sorts map keys.
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// BuildManifest computes the manifest for every spec from the loaded
// packages. A spec whose package is not among pkgs is an error — the
// generator must see everything it freezes.
func BuildManifest(pkgs []*Package, specs []SchemaSpec) (SchemaManifest, error) {
	m := SchemaManifest{}
	for _, spec := range specs {
		var pkg *Package
		for _, p := range pkgs {
			if pathMatches(p.Path, []string{spec.Pkg}) {
				pkg = p
				break
			}
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: schema %s: package %s not loaded", spec.Schema, spec.Pkg)
		}
		fp, err := Fingerprint(pkg, spec)
		if err != nil {
			return nil, fmt.Errorf("lint: schema %s: %w", spec.Schema, err)
		}
		if _, dup := m[spec.Schema]; dup {
			return nil, fmt.Errorf("lint: duplicate schema spec %s", spec.Schema)
		}
		m[spec.Schema] = fp
	}
	// Guard against accidentally empty fingerprints: a schema with no
	// structs, formats and consts protects nothing. (Field and literal
	// order is meaningful and kept as-is: reordering is drift.)
	for _, spec := range specs {
		fp := m[spec.Schema]
		if len(fp.Structs) == 0 && len(fp.Formats) == 0 && len(fp.Consts) == 0 {
			return nil, fmt.Errorf("lint: schema %s fingerprint is empty", spec.Schema)
		}
	}
	return m, nil
}
