package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism returns the analyzer that guards bit-identical results:
// simulation statistics feed content-addressed cache entries
// (the job key, KeySchema) and trace identities (lnuca-trace-v1), so any
// wall-clock read, global math/rand draw, or order-dependent map
// iteration in a result-visible path silently poisons caching and
// replay. The analyzer flags, in the packages it is configured for:
//
//   - time.Now / time.Since / time.After / time.Tick / time.NewTimer /
//     time.NewTicker (wall clock in a sim-visible path; wall time
//     belongs in Phases-style telemetry, which must be annotated),
//   - package-level math/rand functions (the unseeded global RNG;
//     seeded sim.Rand or rand.New(rand.NewSource(seed)) are fine),
//   - range over a map whose body has an order-dependent effect: an
//     append that is never sorted afterwards, a call with unknown
//     effects, an early exit, or a plain overwrite of an outer
//     variable. Commutative bodies (map-to-map copies, += reductions,
//     delete) pass.
//
// paths restricts the analyzer to packages whose import path matches
// one of the entries exactly or by suffix; nil means every package.
func Determinism(paths ...string) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock, global RNG, and order-dependent map iteration in result-visible packages",
		Run: func(pass *Pass) error {
			if !pathMatches(pass.Pkg.Path(), paths) {
				return nil
			}
			return runDeterminism(pass)
		},
	}
}

func pathMatches(path string, paths []string) bool {
	if len(paths) == 0 {
		return true
	}
	for _, p := range paths {
		if path == p || strings.HasSuffix(path, "/"+strings.TrimPrefix(p, "/")) {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read the wall
// clock or schedule on it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// randConstructors are the math/rand functions that build a seeded,
// local generator — the deterministic way to use the package.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		var funcStack []*ast.FuncDecl
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				funcStack = append(funcStack, node)
			case *ast.SelectorExpr:
				checkDetSelector(pass, node)
			case *ast.RangeStmt:
				var encl *ast.FuncDecl
				if len(funcStack) > 0 {
					encl = funcStack[len(funcStack)-1]
				}
				checkMapRange(pass, node, encl)
			}
			return true
		})
	}
	return nil
}

func checkDetSelector(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. time.Time.Sub) are reached only via already-flagged reads
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Report(sel.Pos(), "time.%s reads the wall clock in a determinism-audited package; results must be a pure function of the job key", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Report(sel.Pos(), "%s.%s draws from the global RNG; use a seeded sim.Rand (or rand.New with a fixed seed) so runs are reproducible", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags a range over a map whose body is order-dependent.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, encl *ast.FuncDecl) {
	t := pass.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if reason := orderDependent(pass, rng, encl); reason != "" {
		pass.Report(rng.Pos(), "map iteration order is nondeterministic and the loop body %s; iterate sorted keys instead", reason)
	}
}

// orderDependent returns a non-empty human explanation when the range
// body observably depends on iteration order, "" when every effect in
// the body commutes.
func orderDependent(pass *Pass, rng *ast.RangeStmt, encl *ast.FuncDecl) (reason string) {
	var appended []*ast.Ident
	order := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if order != "" {
			return false
		}
		switch node := n.(type) {
		case *ast.FuncLit:
			return false // its body runs elsewhere; a call of it is caught below
		case *ast.ReturnStmt:
			order = "returns early (which element wins depends on order)"
		case *ast.BranchStmt:
			if node.Tok == token.BREAK || node.Tok == token.GOTO {
				order = "exits early (which element wins depends on order)"
			}
		case *ast.SendStmt:
			order = "sends elements to a channel in iteration order"
		case *ast.CallExpr:
			if id, ap := classifyRangeCall(pass, node); !ap {
				return true
			} else if id != nil {
				appended = append(appended, id)
				return true
			} else if id == nil {
				return true
			}
		case *ast.AssignStmt:
			if r := nonCommutativeAssign(pass, node, rng); r != "" {
				order = r
			}
		}
		return true
	})
	if order != "" {
		return order
	}
	for _, id := range appended {
		if !sortedAfter(pass, id, rng, encl) {
			return "appends to " + id.Name + " in iteration order without sorting it afterwards"
		}
	}
	// A second pass for calls with unknown effects (anything that is not
	// a builtin, a conversion, or a known-pure helper).
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if order != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, pure := impureRangeCall(pass, call); !pure {
			order = "calls " + name + ", whose effects may depend on iteration order"
		}
		return true
	})
	return order
}

// classifyRangeCall reports whether call is the append builtin, and if
// so which identifier receives the result (x = append(x, ...)).
func classifyRangeCall(pass *Pass, call *ast.CallExpr) (*ast.Ident, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil, false
	}
	if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	if len(call.Args) > 0 {
		if target, ok := call.Args[0].(*ast.Ident); ok {
			return target, true
		}
	}
	return nil, true
}

// purePackages are packages whose exported functions cannot observe
// iteration order (no I/O, no shared state mutation through their
// arguments as used here).
var purePackages = map[string]bool{
	"strings": true, "math": true, "strconv": true, "unicode": true,
	"bytes": true, "sort": true, "slices": true, "maps": true, "cmp": true,
}

// impureRangeCall reports whether a call inside a map-range body has
// effects that could depend on iteration order. Builtins, conversions,
// and calls into pure stdlib packages pass.
func impureRangeCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return "", true // conversion
	}
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	default:
		return "a function value", false
	}
	switch o := obj.(type) {
	case *types.Builtin:
		return "", true
	case *types.Func:
		if o.Pkg() == nil || purePackages[o.Pkg().Path()] {
			return "", true
		}
		return o.Pkg().Name() + "." + o.Name(), false
	case *types.TypeName:
		return "", true
	}
	return "an unresolved callee", false
}

// nonCommutativeAssign flags a plain overwrite of a variable declared
// outside the loop: `last = v` keeps whichever element the hash order
// served up. Writes into map indexes and compound numeric updates
// (+=, |=, ...) commute and pass; so do writes to the loop's own vars.
func nonCommutativeAssign(pass *Pass, as *ast.AssignStmt, rng *ast.RangeStmt) string {
	if as.Tok != token.ASSIGN {
		return "" // :=, +=, etc. — defines commute trivially; compound numeric ops commute
	}
	// x = append(x, ...) is handled by the append/sort check, not here.
	if len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if _, isAppend := classifyRangeCall(pass, call); isAppend {
				return ""
			}
		}
	}
	for _, lhs := range as.Lhs {
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			// m[k] = v commutes only when the index actually involves the
			// loop's own variables; m[0] = v keeps an arbitrary winner.
			if mentionsRangeVars(pass, l.Index, rng) {
				continue
			}
			return "writes a fixed index in iteration order (the surviving value depends on order)"
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if obj := pass.Info.Uses[l]; obj != nil {
				if rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End() {
					continue // declared inside the loop
				}
			}
			return "overwrites " + l.Name + " (the surviving value depends on order)"
		default:
			return "assigns through a compound lvalue whose final value depends on order"
		}
	}
	return ""
}

// mentionsRangeVars reports whether expr references the range
// statement's key or value variable.
func mentionsRangeVars(pass *Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	var vars []types.Object
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars = append(vars, obj)
			} else if obj := pass.Info.Uses[id]; obj != nil {
				vars = append(vars, obj)
			}
		}
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				for _, v := range vars {
					if obj == v {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether ident's slice is passed to a sort/slices
// call after the range statement within the enclosing function.
func sortedAfter(pass *Pass, id *ast.Ident, rng *ast.RangeStmt, encl *ast.FuncDecl) bool {
	if encl == nil || encl.Body == nil {
		return false
	}
	target := pass.Info.Uses[id]
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if ai, ok := a.(*ast.Ident); ok && (pass.Info.Uses[ai] == target || ai.Name == id.Name) {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}
