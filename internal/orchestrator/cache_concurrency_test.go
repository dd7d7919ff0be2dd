package orchestrator

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// TestCacheConcurrentWritersSameKey emulates the fleet's shared result
// store: many writers (each with its own Cache over one directory,
// standing in for separate processes) persist the same key at once.
// The write path must tolerate the race — unique temp names, atomic
// rename — so every writer succeeds, the surviving file is intact, and
// no temp litter is left behind.
func TestCacheConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	res := &JobResult{Config: "LN3-144KB", Benchmark: "403.gcc",
		IPC: 1.25, Cycles: 800}
	data, err := res.encode()
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	const keys = 4
	var wg sync.WaitGroup
	errCh := make(chan error, writers*keys)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCache(0, dir)
			for k := 0; k < keys; k++ {
				key := strings.Repeat("k", 8) + string(rune('a'+k))
				if err := c.save(key, data, ""); err != nil {
					errCh <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent save: %v", err)
	}

	// A fresh cache instance (cold memory) must read every key back.
	reader := NewCache(0, dir)
	for k := 0; k < keys; k++ {
		key := strings.Repeat("k", 8) + string(rune('a'+k))
		got, ok := reader.Get(key)
		if !ok {
			t.Fatalf("key %s missing after concurrent writes", key)
		}
		if got.IPC != res.IPC || got.Cycles != res.Cycles {
			t.Fatalf("key %s: stored result differs: %+v", key, got)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != keys {
		t.Fatalf("directory holds %d entries, want %d", len(entries), keys)
	}
}
