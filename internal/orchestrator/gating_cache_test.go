package orchestrator

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/workload"
)

// TestGatedRunCacheEntryIdentical asserts the equivalence the content
// keys make directly checkable: a gated and an ungated execution of one
// job write byte-identical <key>.json entries into the file store. A
// single divergent counter anywhere in the machine would show up as a
// different cache file.
func TestGatedRunCacheEntryIdentical(t *testing.T) {
	job, err := Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "429.mcf", Mode: exp.Quick, Seed: 5}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := workload.ByName(job.Benchmark)
	if !ok {
		t.Fatal("missing benchmark")
	}
	key := job.Key()

	entry := func(ungated bool) []byte {
		t.Helper()
		spec := job.Spec()
		spec.Ungated = ungated
		r := exp.RunOne(spec, prof, job.Mode, job.Seed)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		dir := t.TempDir()
		NewCache(4, dir).Put(key, ResultOf(r))
		b, err := os.ReadFile(filepath.Join(dir, key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	gated, ungated := entry(false), entry(true)
	if !bytes.Equal(gated, ungated) {
		t.Errorf("cache entries for key %s differ between gated (%d bytes) and ungated (%d bytes) runs",
			key, len(gated), len(ungated))
	}
}
