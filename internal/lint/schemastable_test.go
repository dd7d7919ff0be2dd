package lint

import (
	"strings"
	"testing"
)

// goldenSchemaSpecs freeze the schema testdata package: "test-v1" has a
// committed fingerprint (with one field and one const deliberately
// drifted in source), "test-missing" has no manifest entry.
func goldenSchemaSpecs() (SchemaManifest, []SchemaSpec) {
	manifest := SchemaManifest{
		"test-v1": {
			Structs: map[string][]string{
				// Stable also has an unexported memo []byte: no line for it.
				"Stable":  {`A int json:"a"`, `B string json:"b"`, `base schema.base json:""`},
				"Drifted": {`A int json:"a"`, `B int json:"b"`},
			},
			Formats: map[string][]string{"Key": {"%s|a=%d"}},
			Consts:  map[string]string{"keySchema": "test-v1", "minor": "2"},
		},
	}
	specs := []SchemaSpec{
		{
			Schema:  "test-v1",
			Pkg:     "schema",
			Structs: []string{"Stable", "Drifted"},
			Funcs:   []string{"Key"},
			Consts:  []string{"keySchema", "minor"},
		},
		{
			Schema:  "test-missing",
			Pkg:     "schema",
			Structs: []string{"Stable"},
		},
	}
	return manifest, specs
}

func TestSchemaStableGolden(t *testing.T) {
	manifest, specs := goldenSchemaSpecs()
	RunGolden(t, "schema", SchemaStable(manifest, specs))
}

// TestSchemaFingerprintRoundTrip: a manifest generated from source is,
// by construction, drift-free for the specs it covers.
func TestSchemaFingerprintRoundTrip(t *testing.T) {
	pkg, err := LoadDir("testdata/src", "schema")
	if err != nil {
		t.Fatalf("loading schema testdata: %v", err)
	}
	_, specs := goldenSchemaSpecs()
	built, err := BuildManifest([]*Package{pkg}, specs)
	if err != nil {
		t.Fatalf("BuildManifest: %v", err)
	}
	diags, _, err := Run([]*Package{pkg}, []*Analyzer{SchemaStable(built, specs)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("freshly generated manifest still drifts: %v", diags)
	}
	// And it survives a serialize/parse cycle.
	data, err := WriteManifest(built)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err = Run([]*Package{pkg}, []*Analyzer{SchemaStable(reparsed, specs)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("round-tripped manifest drifts: %v", diags)
	}
}

// TestEmbeddedManifest: the committed schemas.json parses and covers
// exactly the three repo schemas the specs freeze.
func TestEmbeddedManifest(t *testing.T) {
	m, err := ParseManifest(schemasJSON)
	if err != nil {
		t.Fatalf("committed schemas.json does not parse: %v", err)
	}
	for _, spec := range RepoSchemaSpecs() {
		fp := m[spec.Schema]
		if fp == nil {
			t.Errorf("schemas.json missing entry for %s", spec.Schema)
			continue
		}
		if len(fp.Structs) == 0 && len(fp.Formats) == 0 && len(fp.Consts) == 0 {
			t.Errorf("schemas.json entry %s is empty", spec.Schema)
		}
	}
	// The long Job.Key canon string must be stored exactly, never in the
	// truncated display form go/constant produces via Value.String().
	for _, f := range m["lnuca-job"].Formats["Job.Key"] {
		if strings.Contains(f, "...") {
			t.Errorf("Job.Key format stored truncated: %q", f)
		}
	}
}
