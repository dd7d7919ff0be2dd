package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestMSHRAllocateLookupFree(t *testing.T) {
	f := NewMSHRFile(4, 4)
	m := f.Allocate(0x100, Target{ReqID: 1, Kind: mem.Read})
	if m == nil {
		t.Fatal("allocate failed on empty file")
	}
	if f.Lookup(0x100) != m {
		t.Fatal("lookup did not find entry")
	}
	if f.Lookup(0x200) != nil {
		t.Fatal("lookup found ghost entry")
	}
	targets := f.Free(0x100)
	if len(targets) != 1 || targets[0].ReqID != 1 {
		t.Fatalf("Free returned %+v", targets)
	}
	if f.Lookup(0x100) != nil {
		t.Fatal("entry survived Free")
	}
	if f.Free(0x100) != nil {
		t.Fatal("double Free should return nil")
	}
}

func TestMSHRCapacity(t *testing.T) {
	f := NewMSHRFile(2, 4)
	f.Allocate(0x100, Target{ReqID: 1})
	f.Allocate(0x200, Target{ReqID: 2})
	if !f.Full() {
		t.Fatal("file should be full")
	}
	if f.Allocate(0x300, Target{ReqID: 3}) != nil {
		t.Fatal("allocation beyond capacity should fail")
	}
	if f.Len() != 2 || f.Lookup(0x300) != nil {
		t.Fatalf("Len = %d after a refused allocation, want 2 and no entry for it", f.Len())
	}
}

func TestMSHRSecondaryMergeLimit(t *testing.T) {
	// Table I: 4 secondary misses per entry.
	f := NewMSHRFile(16, 4)
	m := f.Allocate(0x100, Target{ReqID: 1})
	for i := 0; i < 4; i++ {
		if !f.Merge(m, Target{ReqID: uint64(i + 2)}) {
			t.Fatalf("merge %d rejected, want 4 secondaries allowed", i)
		}
	}
	if f.Merge(m, Target{ReqID: 99}) {
		t.Fatal("fifth secondary merge should be rejected")
	}
	if f.Secondary != 4 || len(m.Targets) != 5 {
		t.Fatalf("Secondary=%d with %d targets, want 4 and 5", f.Secondary, len(m.Targets))
	}
	targets := f.Free(0x100)
	if len(targets) != 5 {
		t.Fatalf("Free returned %d targets, want 5", len(targets))
	}
	// Order of targets must be arrival order.
	for i, tgt := range targets {
		if tgt.ReqID != uint64(i+1) {
			t.Fatalf("target %d has ReqID %d", i, tgt.ReqID)
		}
	}
}

func TestMSHRDegenerateSizes(t *testing.T) {
	f := NewMSHRFile(0, -1)
	if f.Allocate(0x1, Target{}) == nil {
		t.Fatal("clamped file should allow one entry")
	}
	m := f.Lookup(0x1)
	if f.Merge(m, Target{}) {
		t.Fatal("zero secondary limit should reject merges")
	}
}

// Property: entries never exceed capacity and Free always returns exactly
// the targets that were merged.
func TestMSHRInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		file := NewMSHRFile(4, 2)
		want := map[mem.Addr]int{}
		for _, op := range ops {
			line := mem.Addr(op & 0x7)
			if m := file.Lookup(line); m != nil {
				if file.Merge(m, Target{}) {
					want[line]++
				}
			} else if file.Allocate(line, Target{}) != nil {
				want[line] = 1
			}
			if file.Len() > 4 {
				return false
			}
		}
		for line, n := range want {
			got := file.Free(line)
			if len(got) != n {
				return false
			}
		}
		return file.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
