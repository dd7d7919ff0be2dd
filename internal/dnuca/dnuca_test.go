package dnuca

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// dnHarness wires driver -> DNUCA -> MainMemory. The driver is wired,
// so a gated Run can put the machine to sleep: it is idle while no
// response waits and no pushed request waits for its Tick.
type dnHarness struct {
	k    *sim.Kernel
	up   *mem.Port
	down *mem.Port
	d    *DNUCA
	mm   *mem.MainMemory
	ids  mem.IDSource

	got    map[uint64]sim.Cycle
	pushed bool // a request is staged on up.Down
}

func newDNHarness(t *testing.T, cfg Config) *dnHarness {
	t.Helper()
	h := &dnHarness{
		up:   mem.NewPort(16, 16),
		down: mem.NewPort(16, 16),
		got:  map[uint64]sim.Cycle{},
	}
	var err error
	h.d, err = New(cfg, h.up, h.down, &h.ids)
	if err != nil {
		t.Fatal(err)
	}
	h.mm = mem.NewMainMemory("mem", mem.DefaultMainMemoryConfig(), h.down)
	h.k = sim.NewKernel()
	h.k.MustRegister(h)
	h.k.MustRegister(h.d)
	h.k.MustRegister(h.mm)
	return h
}

func (h *dnHarness) Name() string { return "driver" }
func (h *dnHarness) Eval(k *sim.Kernel) {
	for {
		r, ok := h.up.Up.Pop()
		if !ok {
			break
		}
		h.got[r.ID] = k.Cycle()
	}
}
func (h *dnHarness) Commit(k *sim.Kernel) {
	h.up.Down.Tick()
	h.pushed = false
}

func (h *dnHarness) Wire(w sim.Waker) { h.up.WireAbove(w) }

func (h *dnHarness) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	return sim.Never, !h.pushed && h.up.Up.Len() == 0
}

func (h *dnHarness) SkipTo(now, target sim.Cycle) {}

func (h *dnHarness) read(id uint64, a mem.Addr) {
	h.up.Down.Push(mem.Req{ID: id, Addr: a, Kind: mem.Read, Issued: h.k.Cycle()})
	h.pushed = true
}

func (h *dnHarness) write(a mem.Addr) {
	h.up.Down.Push(mem.Req{ID: 0, Addr: a, Kind: mem.Write, Issued: h.k.Cycle()})
	h.pushed = true
}

func (h *dnHarness) runUntil(t *testing.T, id uint64, max int) sim.Cycle {
	t.Helper()
	for i := 0; i < max; i++ {
		if c, ok := h.got[id]; ok {
			return c
		}
		h.k.Step()
	}
	t.Fatalf("request %d never completed within %d cycles", id, max)
	return 0
}

func TestGlobalMissFetchesFromMemoryAndFillsTail(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	start := h.k.Cycle()
	h.read(1, 0x10000)
	done := h.runUntil(t, 1, 2000)
	if done-start < 200 {
		t.Fatalf("cold miss took %d cycles, below DRAM latency", done-start)
	}
	if h.d.GlobalMisses != 1 || h.mm.Reads != 1 {
		t.Fatalf("GlobalMisses=%d mem.Reads=%d, want 1,1", h.d.GlobalMisses, h.mm.Reads)
	}
	// The block must land in the tail (farthest) row of its column.
	for i := 0; i < 200; i++ {
		h.k.Step()
	}
	col := h.d.Column(0x10000)
	if !h.d.BankArray(col, h.d.cfg.Rows-1).Probe(0x10000) {
		t.Fatal("fill did not land in the tail bank")
	}
}

func TestHitIsFasterThanMiss(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	h.read(1, 0x20000)
	h.runUntil(t, 1, 2000)
	for i := 0; i < 100; i++ {
		h.k.Step()
	}
	start := h.k.Cycle()
	h.read(2, 0x20000)
	done := h.runUntil(t, 2, 500)
	hitLat := done - start
	if hitLat >= 200 {
		t.Fatalf("hit latency %d not faster than memory", hitLat)
	}
	// Single injection point, 3-cycle banks, multi-hop wormhole: a hit
	// is necessarily noticeably slower than an L-NUCA Le2 hit (3).
	if hitLat < 8 {
		t.Fatalf("hit latency %d implausibly low for a NUCA traversal", hitLat)
	}
}

func TestPromotionMovesBlockCloser(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	addr := mem.Addr(0x30000)
	h.read(1, addr)
	h.runUntil(t, 1, 2000)
	for i := 0; i < 300; i++ {
		h.k.Step()
	}
	col := h.d.Column(addr)
	if !h.d.BankArray(col, 3).Probe(addr) {
		t.Fatal("setup: block not at tail")
	}
	// Each hit promotes one row: after 3 hits it reaches row 0.
	for n := 0; n < 3; n++ {
		h.read(uint64(10+n), addr)
		h.runUntil(t, uint64(10+n), 1000)
		for i := 0; i < 300; i++ {
			h.k.Step()
		}
	}
	if !h.d.BankArray(col, 0).Probe(addr) {
		rows := []bool{}
		for r := 0; r < 4; r++ {
			rows = append(rows, h.d.BankArray(col, r).Probe(addr))
		}
		t.Fatalf("block not promoted to row 0; residency by row: %v", rows)
	}
	if h.d.Promotions < 3 {
		t.Fatalf("Promotions = %d, want >= 3", h.d.Promotions)
	}
}

func TestPromotedHitsAreFaster(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	addr := mem.Addr(0x40000)
	h.read(1, addr)
	h.runUntil(t, 1, 2000)
	for i := 0; i < 300; i++ {
		h.k.Step()
	}
	// First hit: tail row.
	s1 := h.k.Cycle()
	h.read(2, addr)
	lat1 := h.runUntil(t, 2, 1000) - s1
	// Promote to row 0 with several hits.
	for n := 0; n < 5; n++ {
		h.read(uint64(10+n), addr)
		h.runUntil(t, uint64(10+n), 1000)
		for i := 0; i < 300; i++ {
			h.k.Step()
		}
	}
	s2 := h.k.Cycle()
	h.read(3, addr)
	lat2 := h.runUntil(t, 3, 1000) - s2
	if lat2 >= lat1 {
		t.Fatalf("promoted hit (%d cycles) not faster than tail hit (%d cycles)", lat2, lat1)
	}
}

func TestSecondaryMissMerging(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	h.read(1, 0x50000)
	h.k.Step()
	h.read(2, 0x50000)
	h.read(3, 0x50040) // same 128B block
	h.runUntil(t, 1, 2000)
	h.runUntil(t, 2, 2000)
	h.runUntil(t, 3, 2000)
	if h.mm.Reads != 1 {
		t.Fatalf("memory reads = %d, want 1 (merged)", h.mm.Reads)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	cfg := DefaultConfig()
	h := newDNHarness(t, cfg)
	h.write(0x60000)
	for i := 0; i < 2000; i++ {
		h.k.Step()
	}
	col := h.d.Column(0x60000)
	found := false
	for r := 0; r < cfg.Rows; r++ {
		if h.d.BankArray(col, r).IsDirty(0x60000) {
			found = true
		}
	}
	if !found {
		t.Fatal("write miss did not allocate a dirty block")
	}
	// Overflow the tail bank set to force a dirty writeback. Set stride:
	// 2-way 256KB banks of 128B blocks = 1024 sets; same column needs
	// addr steps of 8*128B per set index... use same set+column stride:
	// 1024 sets * 8 cols * 128B = 1MB.
	stride := mem.Addr(1 << 20)
	var id uint64 = 100
	for i := 1; i <= 12; i++ {
		a := 0x60000 + mem.Addr(i)*stride
		h.write(a)
		id++
		h.read(id, a)
		h.runUntil(t, id, 3000)
	}
	for i := 0; i < 3000 && h.mm.Writebacks == 0; i++ {
		h.k.Step()
	}
	if h.mm.Writebacks == 0 {
		t.Fatal("dirty evictions never reached memory")
	}
}

func TestAllRequestsCompleteUnderLoad(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	rng := sim.NewRand(11)
	var id uint64
	for cyc := 0; cyc < 6000; cyc++ {
		if h.up.Down.CanPush() && rng.Bool(0.25) {
			addr := mem.Addr(rng.Intn(1<<22)) &^ 0x7F
			if rng.Bool(0.25) {
				h.write(addr)
			} else {
				id++
				h.read(id, addr)
			}
		}
		h.k.Step()
	}
	for i := 0; i < 20000 && uint64(len(h.got)) < id; i++ {
		h.k.Step()
	}
	if uint64(len(h.got)) != id {
		t.Fatalf("completed %d of %d reads (MSHR: %d, in-flight msgs: %d)",
			len(h.got), id, h.d.MSHROccupancy(), h.d.Mesh().InFlight())
	}
	if h.d.MSHROccupancy() != 0 {
		t.Fatalf("leaked MSHRs: %d", h.d.MSHROccupancy())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() string {
		h := newDNHarness(t, DefaultConfig())
		rng := sim.NewRand(3)
		var id uint64
		for cyc := 0; cyc < 3000; cyc++ {
			if h.up.Down.CanPush() && rng.Bool(0.3) {
				id++
				h.read(id, mem.Addr(rng.Intn(1<<21))&^0x7F)
			}
			h.k.Step()
		}
		s := stats.NewSet()
		h.d.Collect("dn", s)
		return s.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestCollect(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	h.read(1, 0x1000)
	h.runUntil(t, 1, 2000)
	s := stats.NewSet()
	h.d.Collect("dn", s)
	if s.Counter("dn.reads") != 1 || s.Counter("dn.global_misses") != 1 {
		t.Fatalf("Collect wrong:\n%s", s)
	}
	if s.Counter("dn.net_flit_hops") == 0 {
		t.Fatal("network hops not counted")
	}
}

func TestConfigValidation(t *testing.T) {
	var ids mem.IDSource
	up, down := mem.NewPort(4, 4), mem.NewPort(4, 4)
	bad := DefaultConfig()
	bad.Rows = 0
	if _, err := New(bad, up, down, &ids); err == nil {
		t.Fatal("zero rows must be rejected")
	}
	bad = DefaultConfig()
	bad.Bank.SizeBytes = 100
	if _, err := New(bad, up, down, &ids); err == nil {
		t.Fatal("invalid bank must be rejected")
	}
	// Table I's 128B block in 32B flits plus a head flit is the paper's
	// 5-flit maximum; 16B flits would make a 9-flit message.
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("Table I D-NUCA rejected: %v", err)
	}
	for _, flit := range []int{16, 0} {
		bad = DefaultConfig()
		bad.FlitBytes = flit
		if _, err := New(bad, up, down, &ids); err == nil {
			t.Fatalf("%dB flits for a %dB block must be rejected", flit, bad.Bank.BlockBytes)
		}
	}
}

func TestColumnMapping(t *testing.T) {
	h := newDNHarness(t, DefaultConfig())
	cfg := h.d.Config()
	// A span is one block per bank set (128 KB): its blocks share a
	// column, and consecutive spans take consecutive columns.
	span := cfg.Bank.NumSets() * cfg.Bank.BlockBytes
	for s := 0; s < 2*cfg.Cols; s++ {
		for _, off := range []int{0, cfg.Bank.BlockBytes, span / 2, span - cfg.Bank.BlockBytes} {
			a := mem.Addr(s*span + off)
			if got := h.d.Column(a); got != s%cfg.Cols {
				t.Fatalf("block %#x (span %d) in column %d, want %d", a, s, got, s%cfg.Cols)
			}
		}
	}
}

// TestHoldsItsCapacity: a contiguous region the size of the D-NUCA, each
// line placed in the first bank of its column with room (as
// hier.System.Prewarm places one), is held whole. A column taken from
// the bank's own set-index bits leaves each bank one set in Cols.
func TestHoldsItsCapacity(t *testing.T) {
	small := DefaultConfig()
	small.Rows, small.Cols = 2, 4
	small.Bank.SizeBytes = 64 << 10
	for _, cfg := range []Config{DefaultConfig(), small} {
		h := newDNHarness(t, cfg)
		capacity := cfg.Rows * cfg.Cols * cfg.Bank.SizeBytes
		base := mem.Addr(0x4000_0000)
		for off := 0; off < capacity; off += cfg.Bank.BlockBytes {
			line := base + mem.Addr(off)
			col := h.d.Column(line)
			for r := 0; r < cfg.Rows; r++ {
				if b := h.d.BankArray(col, r); b.HasSpace(line) {
					b.Fill(line, false)
					break
				}
			}
		}
		held := 0
		for col := 0; col < cfg.Cols; col++ {
			for r := 0; r < cfg.Rows; r++ {
				held += len(h.d.BankArray(col, r).Lines(nil))
			}
		}
		if want := capacity / cfg.Bank.BlockBytes; held != want {
			t.Errorf("%dx%d banks of %d KB: hold %d of the %d lines of a %d KB region",
				cfg.Rows, cfg.Cols, cfg.Bank.SizeBytes>>10, held, want, capacity>>10)
		}
	}
}
