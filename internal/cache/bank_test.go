package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func mkBank(t *testing.T, size, ways, block int) *Bank {
	t.Helper()
	return NewBank(BankConfig{SizeBytes: size, Ways: ways, BlockBytes: block})
}

func TestBankConfigValidate(t *testing.T) {
	good := BankConfig{SizeBytes: 8192, Ways: 2, BlockBytes: 32}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if good.NumSets() != 128 {
		t.Fatalf("NumSets = %d, want 128", good.NumSets())
	}
	bad := []BankConfig{
		{SizeBytes: 0, Ways: 2, BlockBytes: 32},
		{SizeBytes: 8192, Ways: 0, BlockBytes: 32},
		{SizeBytes: 8192, Ways: 2, BlockBytes: 33},
		{SizeBytes: 1000, Ways: 2, BlockBytes: 32},
		{SizeBytes: 8192, Ways: 3, BlockBytes: 32}, // 85.33 sets
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", b)
		}
	}
}

func TestBankFillAndProbe(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	addr := mem.Addr(0x1000)
	if b.Probe(addr) {
		t.Fatal("empty bank should miss")
	}
	if _, ev := b.Fill(addr, false); ev {
		t.Fatal("fill into empty set should not evict")
	}
	if !b.Probe(addr) || !b.Probe(addr+31) {
		t.Fatal("probe should hit anywhere within the block")
	}
	if b.Probe(addr + 32) {
		t.Fatal("neighbouring block should miss")
	}
	if b.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d, want 1", b.Occupancy())
	}
}

func TestBankLRUEviction(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	// Three blocks mapping to the same set (stride = numSets*block = 4096).
	a0, a1, a2 := mem.Addr(0x0), mem.Addr(0x1000), mem.Addr(0x2000)
	b.Fill(a0, false)
	b.Fill(a1, false)
	// Touch a0 so a1 becomes LRU.
	if !b.Access(a0, false) {
		t.Fatal("a0 should hit")
	}
	v, ev := b.Fill(a2, false)
	if !ev || v.Addr != a1 {
		t.Fatalf("evicted %+v, want a1 (LRU)", v)
	}
	if !b.Probe(a0) || !b.Probe(a2) || b.Probe(a1) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestBankDirtyVictim(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	a0, a1, a2 := mem.Addr(0x0), mem.Addr(0x1000), mem.Addr(0x2000)
	b.Fill(a0, false)
	b.Access(a0, true) // dirty it
	b.Fill(a1, false)
	b.Access(a1, false) // a0 becomes LRU
	v, ev := b.Fill(a2, false)
	if !ev || v.Addr != a0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty a0", v)
	}
}

func TestBankRefillExistingBlock(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	a := mem.Addr(0x40)
	b.Fill(a, false)
	if _, ev := b.Fill(a, true); ev {
		t.Fatal("refill must not evict")
	}
	if b.Occupancy() != 1 {
		t.Fatalf("refill duplicated the block: occupancy %d", b.Occupancy())
	}
	if !b.IsDirty(a) {
		t.Fatal("refill with dirty must OR the dirty bit")
	}
}

func TestBankInvalidate(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	a := mem.Addr(0x80)
	b.Fill(a, true)
	dirty, present := b.Invalidate(a)
	if !present || !dirty {
		t.Fatalf("Invalidate = dirty=%v present=%v, want true,true", dirty, present)
	}
	if b.Probe(a) || b.Occupancy() != 0 {
		t.Fatal("block still present after invalidate")
	}
	if _, present := b.Invalidate(a); present {
		t.Fatal("double invalidate should report absent")
	}
}

func TestBankHasSpaceAndVictimFor(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	a0, a1 := mem.Addr(0x0), mem.Addr(0x1000)
	if !b.HasSpace(a0) {
		t.Fatal("empty set should have space")
	}
	if _, ok := b.VictimFor(a0); ok {
		t.Fatal("no victim needed while space remains")
	}
	b.Fill(a0, false)
	b.Fill(a1, false)
	if b.HasSpace(a0) {
		t.Fatal("full set should have no space")
	}
	// a0 was filled first and never touched since, so it is the LRU.
	v, ok := b.VictimFor(a0)
	if !ok || v.Addr != a0 {
		t.Fatalf("VictimFor = %+v,%v; want a0 (LRU)", v, ok)
	}
	// VictimFor must not modify state.
	if !b.Probe(a0) || !b.Probe(a1) {
		t.Fatal("VictimFor modified the set")
	}
}

func TestBankExtractVictim(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	a0, a1 := mem.Addr(0x0), mem.Addr(0x1000)
	b.Fill(a0, false)
	b.Fill(a1, false)
	v, ok := b.ExtractVictim(a0)
	if !ok || v.Addr != a0 {
		t.Fatalf("ExtractVictim = %+v, want LRU a0", v)
	}
	if b.Probe(a0) {
		t.Fatal("extracted victim still present")
	}
	if b.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", b.Occupancy())
	}
}

func TestBankLinesEnumeration(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	want := map[mem.Addr]bool{0x0: true, 0x20: true, 0x1000: true}
	for a := range want {
		b.Fill(a, false)
	}
	lines := b.Lines(nil)
	if len(lines) != len(want) {
		t.Fatalf("Lines returned %d entries, want %d", len(lines), len(want))
	}
	for _, l := range lines {
		if !want[l] {
			t.Errorf("unexpected line %#x", uint64(l))
		}
	}
}

// Property: occupancy always equals the number of enumerated lines, and
// never exceeds capacity, under any operation sequence.
func TestBankOccupancyInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBank(BankConfig{SizeBytes: 1024, Ways: 2, BlockBytes: 32})
		for _, op := range ops {
			addr := mem.Addr(op&0x3FF) << 5
			switch op >> 14 {
			case 0:
				b.Fill(addr, op&1 == 1)
			case 1:
				b.Access(addr, op&1 == 1)
			case 2:
				b.Invalidate(addr)
			case 3:
				b.ExtractVictim(addr)
			}
			if b.Occupancy() != len(b.Lines(nil)) {
				return false
			}
			if b.Occupancy() > b.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a fill is always followed by a successful probe of that block.
func TestBankFillThenProbeProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		b := NewBank(BankConfig{SizeBytes: 2048, Ways: 4, BlockBytes: 64})
		for _, raw := range addrs {
			a := mem.Addr(raw)
			b.Fill(a, false)
			if !b.Probe(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankCapacity(t *testing.T) {
	b := mkBank(t, 8192, 2, 32)
	if b.Capacity() != 256 {
		t.Fatalf("Capacity = %d, want 256", b.Capacity())
	}
	// Fill beyond capacity: occupancy must saturate.
	for i := 0; i < 512; i++ {
		b.Fill(mem.Addr(i*32), false)
	}
	if b.Occupancy() != 256 {
		t.Fatalf("Occupancy = %d, want 256", b.Occupancy())
	}
}

// TestPreloadRangeMatchesFillLoop: on seeded random geometries, prior
// content and ranges, PreloadRange leaves every set — line, valid and
// dirty, way by way — and the occupancy exactly as the block-by-block
// Fill loop it replaces does; a range over a resident block panics.
func TestPreloadRangeMatchesFillLoop(t *testing.T) {
	rng := sim.NewRand(18)
	for trial := 0; trial < 300; trial++ {
		ways := 1 + rng.Intn(16)
		sets := 1 << rng.Intn(13)
		block := 32 << rng.Intn(3)
		cfg := BankConfig{SizeBytes: ways * sets * block, Ways: ways, BlockBytes: block}
		got, want := NewBank(cfg), NewBank(cfg)

		// One block up to three times the capacity, so sets overflow and
		// evict old and new blocks alike; the size is cut short of a
		// block multiple two times in three.
		capacity := ways * sets
		if capacity > 4096 && trial%4 != 0 {
			capacity = 4096 // most big banks get a partial range: not every set is touched
		}
		blocks := 1 + rng.Intn(3*capacity)
		base := mem.Addr(1<<20+rng.Intn(1<<16)) * mem.Addr(block)
		bytes := blocks * block
		if rng.Intn(3) > 0 {
			bytes -= rng.Intn(block)
		}
		end := base + mem.Addr(blocks*block)

		for n := rng.Intn(2 * ways * sets); n > 0; n-- {
			a := mem.Addr(rng.Intn(1<<22)) * mem.Addr(block)
			if a >= base {
				a += end - base // keep prior content outside the range
			}
			dirty := rng.Bool(0.3)
			got.Fill(a, dirty)
			want.Fill(a, dirty)
		}

		got.PreloadRange(base, bytes)
		for off := 0; off < bytes; off += block {
			want.Fill(base+mem.Addr(off), false)
		}

		if got.Occupancy() != want.Occupancy() {
			t.Fatalf("trial %d %+v range %d blocks: Occupancy = %d, Fill loop leaves %d",
				trial, cfg, blocks, got.Occupancy(), want.Occupancy())
		}
		for s := range want.sets {
			for w := range want.sets[s] {
				if got.sets[s][w] != want.sets[s][w] {
					t.Fatalf("trial %d %+v range %d blocks: set %d way %d = %+v, Fill loop leaves %+v",
						trial, cfg, blocks, s, w, got.sets[s][w], want.sets[s][w])
				}
			}
		}
	}

	b := mkBank(t, 8192, 2, 32)
	b.Fill(0x1040, true)
	defer func() {
		if recover() == nil {
			t.Fatal("PreloadRange over a resident block did not panic")
		}
	}()
	b.PreloadRange(0x1000, 256)
}
