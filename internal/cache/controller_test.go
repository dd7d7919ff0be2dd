package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ctrlHarness wires driver -> Controller -> MainMemory.
type ctrlHarness struct {
	k    *sim.Kernel
	up   *mem.Port
	down *mem.Port
	c    *Controller
	mm   *mem.MainMemory
	ids  mem.IDSource

	got map[uint64]sim.Cycle // reqID -> completion cycle
}

func newCtrlHarness(t *testing.T, cfg ControllerConfig) *ctrlHarness {
	t.Helper()
	h := &ctrlHarness{
		up:   mem.NewPort(16, 16),
		down: mem.NewPort(16, 16),
		got:  map[uint64]sim.Cycle{},
	}
	h.c = NewController(cfg, h.up, h.down, &h.ids)
	h.mm = mem.NewMainMemory("mem", mem.MainMemoryConfig{
		FirstChunkCycles: 50,
		InterChunkCycles: 4,
		ChunkBytes:       16,
		BlockBytes:       cfg.Bank.BlockBytes,
	}, h.down)
	h.k = sim.NewKernel()
	h.k.MustRegister(h)
	h.k.MustRegister(h.c)
	h.k.MustRegister(h.mm)
	return h
}

func (h *ctrlHarness) Name() string { return "driver" }
func (h *ctrlHarness) Eval(k *sim.Kernel) {
	for {
		r, ok := h.up.Up.Pop()
		if !ok {
			break
		}
		h.got[r.ID] = k.Cycle()
	}
}
func (h *ctrlHarness) Commit(k *sim.Kernel) { h.up.Down.Tick() }

func (h *ctrlHarness) read(id uint64, a mem.Addr) {
	h.up.Down.Push(mem.Req{ID: id, Addr: a, Kind: mem.Read, Issued: h.k.Cycle()})
}

func (h *ctrlHarness) write(id uint64, a mem.Addr) {
	h.up.Down.Push(mem.Req{ID: id, Addr: a, Kind: mem.Write, Issued: h.k.Cycle()})
}

func (h *ctrlHarness) runUntil(t *testing.T, id uint64, max int) sim.Cycle {
	t.Helper()
	for i := 0; i < max; i++ {
		if c, ok := h.got[id]; ok {
			return c
		}
		h.k.Step()
	}
	t.Fatalf("request %d never completed (after %d cycles)", id, max)
	return 0
}

func l2Config() ControllerConfig {
	return ControllerConfig{
		Name:             "L2",
		Bank:             BankConfig{SizeBytes: 256 << 10, Ways: 8, BlockBytes: 64},
		CompletionCycles: 4,
		InitiationCycles: 2,
		Ports:            1,
		Policy:           CopyBack,
		Mode:             Serial,
		MSHREntries:      16,
		MSHRSecondary:    4,
		WriteBufEntries:  32,
	}
}

func TestControllerMissThenHit(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	h.read(1, 0x1000)
	missDone := h.runUntil(t, 1, 500)
	// Miss must cost at least the memory first-chunk latency.
	if missDone < 50 {
		t.Fatalf("miss completed at %d, faster than memory latency", missDone)
	}
	start := h.k.Cycle()
	h.read(2, 0x1000)
	hitDone := h.runUntil(t, 2, 100)
	lat := hitDone - start
	// Request crosses the channel (1), completes in 4, response crosses
	// back (1): ~6 cycles.
	if lat < 4 || lat > 8 {
		t.Fatalf("hit latency = %d, want ~6", lat)
	}
	if h.c.ReadHits != 1 || h.c.ReadMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1,1", h.c.ReadHits, h.c.ReadMisses)
	}
}

func TestControllerSecondaryMissMerging(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	h.read(1, 0x2000)
	h.k.Step()
	h.read(2, 0x2000) // same block: secondary miss
	h.read(3, 0x2040) // different block: second primary
	h.runUntil(t, 1, 500)
	h.runUntil(t, 2, 500)
	h.runUntil(t, 3, 500)
	if h.mm.Reads != 2 {
		t.Fatalf("memory reads = %d, want 2 (secondary merged)", h.mm.Reads)
	}
	if h.c.ReadMisses != 3 {
		t.Fatalf("read misses = %d, want 3", h.c.ReadMisses)
	}
}

func TestControllerWriteAllocateAndWriteback(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	// Write misses allocate in a copy-back cache.
	h.write(0, 0x3000)
	for i := 0; i < 300; i++ {
		h.k.Step()
	}
	if !h.c.Bank().Probe(0x3000) {
		t.Fatal("write-allocate did not fill the block")
	}
	if !h.c.Bank().IsDirty(0x3000) {
		t.Fatal("allocated block should be dirty")
	}
	// Evict it by filling the set: 8 ways, set stride = 512 sets * 64B.
	stride := mem.Addr(512 * 64)
	for i := 1; i <= 9; i++ {
		h.read(uint64(10+i), 0x3000+mem.Addr(i)*stride)
		for j := 0; j < 300; j++ {
			h.k.Step()
		}
	}
	if h.c.Bank().Probe(0x3000) {
		t.Fatal("dirty block was never evicted; test setup wrong")
	}
	if h.mm.Writebacks == 0 {
		t.Fatal("dirty eviction must produce a writeback to memory")
	}
}

func TestControllerWriteThroughForwards(t *testing.T) {
	cfg := l2Config()
	cfg.Name = "L1"
	cfg.Policy = WriteThrough
	cfg.Bank = BankConfig{SizeBytes: 32 << 10, Ways: 4, BlockBytes: 32}
	h := newCtrlHarness(t, cfg)
	// Populate the block, then store to it.
	h.read(1, 0x4000)
	h.runUntil(t, 1, 500)
	h.write(0, 0x4000)
	for i := 0; i < 200; i++ {
		h.k.Step()
	}
	// The store must have been forwarded to memory (write-through).
	if h.mm.Writebacks+h.mm.Reads < 2 {
		t.Fatalf("store not forwarded: mem reads=%d writebacks=%d",
			h.mm.Reads, h.mm.Writebacks)
	}
	if h.c.Bank().IsDirty(0x4000) {
		t.Fatal("write-through cache must not hold dirty blocks after forwarding")
	}
}

func TestControllerReadAfterWriteForwardsFromBuffer(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	h.write(0, 0x5000)
	h.read(7, 0x5000)
	done := h.runUntil(t, 7, 500)
	_ = done
	if h.c.ReadHits == 0 {
		t.Fatal("read after write should hit via buffer or allocated block")
	}
}

func TestControllerWritebackBypassOnMiss(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	h.up.Down.Push(mem.Req{ID: 0, Addr: 0x6000, Kind: mem.Writeback})
	for i := 0; i < 300; i++ {
		h.k.Step()
	}
	if h.mm.Writebacks != 1 {
		t.Fatalf("writeback miss should forward downstream, got %d", h.mm.Writebacks)
	}
	if h.c.Bank().Probe(0x6000) {
		t.Fatal("writeback miss must not allocate")
	}
}

func TestControllerWritebackHitMarksDirty(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	h.read(1, 0x7000)
	h.runUntil(t, 1, 500)
	h.up.Down.Push(mem.Req{ID: 0, Addr: 0x7000, Kind: mem.Writeback})
	for i := 0; i < 50; i++ {
		h.k.Step()
	}
	if !h.c.Bank().IsDirty(0x7000) {
		t.Fatal("writeback hit should mark the block dirty")
	}
}

func TestControllerInitiationIntervalThrottles(t *testing.T) {
	cfg := l2Config()
	cfg.InitiationCycles = 4
	h := newCtrlHarness(t, cfg)
	// Two hits to the same block, issued back to back: the second must be
	// delayed by the initiation interval.
	h.read(1, 0x8000)
	h.runUntil(t, 1, 500)
	h.read(2, 0x8000)
	h.read(3, 0x8040) // different set, still same single port
	d2 := h.runUntil(t, 2, 100)
	d3 := h.runUntil(t, 3, 100)
	if d3 < d2+4 {
		t.Fatalf("second access at %d, first at %d: initiation interval not enforced", d3, d2)
	}
}

func TestControllerCollect(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	h.read(1, 0x9000)
	h.runUntil(t, 1, 500)
	s := stats.NewSet()
	h.c.Collect("l2", s)
	if s.Counter("l2.reads") != 1 || s.Counter("l2.read_misses") != 1 {
		t.Fatalf("Collect missing counters: %s", s)
	}
}

// smallL2 is a copy-back L2 with one port, 64 sets of 2 ways, and the
// MSHR and write-buffer sizes a directed deadlock test wants.
func smallL2(mshrs, secondary, wbuf int) ControllerConfig {
	cfg := l2Config()
	cfg.Bank = BankConfig{SizeBytes: 8 << 10, Ways: 2, BlockBytes: 64}
	cfg.MSHREntries, cfg.MSHRSecondary, cfg.WriteBufEntries = mshrs, secondary, wbuf
	return cfg
}

// missOn puts line x in flight by hand: a primary read miss, whose fetch
// memory answers once queued.
func (h *ctrlHarness) missOn(id uint64, x mem.Addr) (m *MSHR, queueFetch func()) {
	m = h.c.mshr.Allocate(x, Target{ReqID: id, Addr: x, Kind: mem.Read})
	return m, func() { h.c.queueFetch(x, 0, 0) }
}

// fillSet fills the set x maps to with other blocks, dirty or clean.
func (h *ctrlHarness) fillSet(x mem.Addr, dirty bool) {
	stride := mem.Addr(h.c.bank.numSets * h.c.cfg.Bank.BlockBytes)
	for w := 1; w <= h.c.cfg.Bank.Ways; w++ {
		h.c.bank.Fill(x+mem.Addr(w)*stride, dirty)
	}
}

// TestFullWriteBufferMergesPastSecondaryLimit builds the wait by hand: the
// write buffer is full, its head a write to X, X's MSHR at the secondary
// limit, and X's fill on its way to a set whose victim is dirty. The fill
// needs a buffer slot for the victim, the head needs a merge slot on X,
// and X's entry needs the fill. A write wants no response, so it merges
// past the limit and the buffer drains.
func TestFullWriteBufferMergesPastSecondaryLimit(t *testing.T) {
	h := newCtrlHarness(t, smallL2(2, 1, 2))
	const x, y = mem.Addr(0x1000), mem.Addr(0x20000)
	m, queueFetch := h.missOn(1, x)
	if !h.c.mshr.Merge(m, Target{ReqID: 2, Addr: x, Kind: mem.Read}) || h.c.mshr.CanMerge(m) {
		t.Fatal("setup: X's MSHR is not at its secondary limit")
	}
	h.fillSet(x, true)
	h.c.wbuf.Add(x, mem.Write)
	h.c.wbuf.Add(y, mem.Write)
	if !h.c.wbuf.Full() {
		t.Fatal("setup: write buffer not full")
	}
	// Nothing else is pending: the head alone decides what one Eval does.
	h.k.Step()
	if h.c.wbuf.Len() != 1 || m.Targets[len(m.Targets)-1].Kind != mem.Write {
		t.Fatal("a head write to a line in flight did not merge in one Eval")
	}
	queueFetch()
	h.runUntil(t, 1, 2000)
	h.runUntil(t, 2, 2000)
	if !h.c.Bank().IsDirty(x) {
		t.Fatal("the merged write did not leave X dirty")
	}
}

// TestFillOfCleanVictimSkipsFullWriteBuffer builds the other wait by hand:
// the write buffer is full, its head a write miss that needs an MSHR, the
// MSHR file full, and a fill arriving for a set whose LRU way is clean.
// Only a dirty victim needs a buffer slot, so the fill goes in, frees its
// MSHR, and the head allocates.
func TestFillOfCleanVictimSkipsFullWriteBuffer(t *testing.T) {
	h := newCtrlHarness(t, smallL2(1, 4, 2))
	const x, w, v = mem.Addr(0x1000), mem.Addr(0x20000), mem.Addr(0x30040)
	_, queueFetch := h.missOn(1, x)
	queueFetch()
	h.fillSet(x, false)
	h.c.wbuf.Add(w, mem.Write)
	h.c.wbuf.Add(v, mem.Write)
	if !h.c.mshr.Full() || !h.c.wbuf.Full() {
		t.Fatal("setup: MSHR file or write buffer not full")
	}
	for i := 0; i < 2000 && h.down.Up.Len() == 0; i++ {
		h.k.Step()
	}
	h.k.Step()
	if !h.c.Bank().Probe(x) || h.c.mshr.Lookup(x) != nil {
		t.Fatal("a fill that evicts a clean victim did not land in one Eval past the full write buffer")
	}
	h.runUntil(t, 1, 2000)
	for i := 0; i < 2000 && h.c.wbuf.Len() > 0; i++ {
		h.k.Step()
	}
	if h.c.wbuf.Len() != 0 || !h.c.Bank().IsDirty(w) {
		t.Fatalf("write buffer did not drain (%d left) into a dirty W", h.c.wbuf.Len())
	}
}

// TestSecondaryMissMergeReportsActive: the Eval that merges a read into
// a miss already in flight takes no bank port, and still leaves a
// record that reports active.
func TestSecondaryMissMergeReportsActive(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	const x = mem.Addr(0x1000)
	m, _ := h.missOn(1, x)
	h.read(2, x)
	h.k.Step() // the driver's Commit publishes the read
	h.k.Step()
	if len(m.Targets) != 2 || h.up.Down.Len() != 0 {
		t.Fatalf("the read did not merge: %d targets, %d reads queued", len(m.Targets), h.up.Down.Len())
	}
	if _, idle := h.c.NextEvent(h.k.Cycle()); idle {
		t.Fatal("the Eval that merged a read reports idle")
	}
}

// TestSkipToReplaysWriteBufferStall: a store waits on a full write
// buffer whose head, a write miss, waits for the one MSHR, held by a
// miss whose fetch never leaves. Each cycle stalls on both. On a gated
// kernel the controller sleeps through the wait, and its SkipTo must
// count the same stalls as an Eval every cycle.
func TestSkipToReplaysWriteBufferStall(t *testing.T) {
	run := func(gated bool) (*Controller, *sim.Kernel) {
		up, down := mem.NewPort(4, 4), mem.NewPort(4, 4)
		c := NewController(smallL2(1, 1, 2), up, down, &mem.IDSource{})
		c.mshr.Allocate(0x1000, Target{ReqID: 1, Addr: 0x1000, Kind: mem.Read})
		c.wbuf.Add(0x20000, mem.Write)
		c.wbuf.Add(0x30000, mem.Write)
		up.Down.Push(mem.Req{ID: 2, Addr: 0x40000, Kind: mem.Write})
		up.Down.Tick()
		k := sim.NewKernel()
		k.MustRegister(c)
		k.SetGating(gated)
		k.Run(1000)
		return c, k
	}
	stepped, _ := run(false)
	skipped, k := run(true)
	if k.EvalsSkipped < 900 {
		t.Fatalf("the gated kernel skipped %d Evals: the controller never slept", k.EvalsSkipped)
	}
	if stepped.StallWBufFull != 1000 || stepped.StallMSHRFull != 1000 {
		t.Fatalf("stepped: %d write-buffer and %d MSHR stalls in 1000 cycles, want 1000 each",
			stepped.StallWBufFull, stepped.StallMSHRFull)
	}
	if skipped.StallWBufFull != stepped.StallWBufFull || skipped.StallMSHRFull != stepped.StallMSHRFull {
		t.Errorf("gated: %d write-buffer and %d MSHR stalls, stepped %d and %d",
			skipped.StallWBufFull, skipped.StallMSHRFull, stepped.StallWBufFull, stepped.StallMSHRFull)
	}
}

func TestControllerManyRandomRequestsDrain(t *testing.T) {
	h := newCtrlHarness(t, l2Config())
	rng := sim.NewRand(42)
	issued := 0
	for i := 0; i < 2000; i++ {
		if issued < 200 && h.up.Down.CanPush() && rng.Bool(0.3) {
			issued++
			h.read(uint64(issued), mem.Addr(rng.Intn(1<<16))&^0x3F)
		}
		h.k.Step()
	}
	for i := 0; i < 2000 && len(h.got) < issued; i++ {
		h.k.Step()
	}
	if len(h.got) != issued {
		t.Fatalf("completed %d of %d reads", len(h.got), issued)
	}
	if h.c.MSHROccupancy() != 0 {
		t.Fatalf("MSHRs leaked: %d live", h.c.MSHROccupancy())
	}
}
