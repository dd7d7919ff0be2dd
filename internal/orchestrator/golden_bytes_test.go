package orchestrator

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hier"
	"repro/internal/trace"
)

// TestResultBytesGolden pins the content of a trace replay across
// commits, the way TestJobKeyGolden pins keys: the sha256 of the bytes
// Cache.Put stores (Phases stripped) for a recorded trace replayed on a
// foreign hierarchy. Generated runs are pinned by the digest ledger
// (cmd/lnucasim/testdata), which hashes the same stored bytes; a trace is
// outside it, so its row stays here. A refactor must leave the sum alone;
// a model change bumps KeySchema and regenerates it with the ledger.
func TestResultBytesGolden(t *testing.T) {
	dir := t.TempDir()
	traces := trace.NewStore("")
	e := NewEngine(NewCache(16, dir), traces)

	tr, _ := recordTestTrace(t) // 400.perlbench on LN3, seed 1
	hdr, err := traces.Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	const want = "9aeb6c934eeef402497dc31ed48903101a837089d44b9ca910a28f5a3cae0829"
	job, err := Job{Kind: hier.Conventional, Trace: hdr.ID}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, err := e.Do(context.Background(), job, nil); err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, job.Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("trace on conventional: stored result bytes drifted (%d bytes):\n got %s\nwant %s", len(b), got, want)
	}
}
