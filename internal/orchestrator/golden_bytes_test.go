package orchestrator

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/trace"
)

// TestResultBytesGolden pins result *content* across commits, the way
// TestJobKeyGolden pins keys: the sha256 of the bytes Cache.Put stores
// (Phases stripped) for the four Fig. 1 hierarchies on one benchmark, a
// 2-core mix, and a recorded trace replayed on a foreign hierarchy, at a
// small explicit window. The gated == ungated and replay == live tests
// compare two runs of one build; this one compares this build with the
// one that generated the constants. A refactor of hier/exp must leave
// them alone; a deliberate model change regenerates them and says so.
func TestResultBytesGolden(t *testing.T) {
	mode := exp.Mode{Name: "golden", Warmup: 500, Measure: 3_000}
	dir := t.TempDir()
	traces := trace.NewStore("")
	e := NewEngine(NewCache(16, dir), traces)

	tr, _ := recordTestTrace(t) // 400.perlbench on LN3, seed 1
	hdr, err := traces.Put(tr)
	if err != nil {
		t.Fatal(err)
	}

	golden := []struct {
		name string
		job  Job
		sum  string
	}{
		{"conventional", Job{Kind: hier.Conventional, Benchmark: "403.gcc", Mode: mode, Seed: 1},
			"90c458a45e4c24d1d32a57eae0e60c6c50d4df4d97184daec9f302cc8c4d38d2"},
		{"ln+l3", Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "403.gcc", Mode: mode, Seed: 1},
			"3b7d51738b3587db5c9d4b71f733c0abdd0b75bbc4fb1db1457bdfede8f67416"},
		{"dn-4x8", Job{Kind: hier.DNUCAOnly, Benchmark: "403.gcc", Mode: mode, Seed: 1},
			"d9efc809255b417c0b6df9f78b4d3f67a73e7624892b95fffedd7c2329dbe5d8"},
		{"ln+dn-4x8", Job{Kind: hier.LNUCADNUCA, Levels: 3, Benchmark: "403.gcc", Mode: mode, Seed: 1},
			"ae3e7616d5a1316df1ba62b8776a10bb6cd1c8d403b0a4ef11a58b608edd3efb"},
		{"2-core mix", Job{Kind: hier.LNUCAL3, Levels: 3, Cores: 2, Mix: "403.gcc,470.lbm", Mode: mode, Seed: 1},
			"8aba57799c10eab6986164c06c5687b9e09c4a7eb68cccdc3e0d5ec90ef3f3da"},
		{"trace on conventional", Job{Kind: hier.Conventional, Trace: hdr.ID},
			"7403819339efcc607d1d0348150483caf376ac93b8ad1be97a7f4f07b57d2a09"},
	}
	for _, g := range golden {
		job, err := g.job.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if _, cached, err := e.Do(context.Background(), job, nil); err != nil || cached {
			t.Fatalf("%s: cached=%v err=%v", g.name, cached, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, job.Key()+".json"))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != g.sum {
			t.Errorf("%s: stored result bytes drifted (%d bytes):\n got %s\nwant %s", g.name, len(b), got, g.sum)
		}
	}
}
