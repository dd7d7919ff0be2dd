package lnuca

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestBlockConservation verifies that blocks are never duplicated or
// silently lost: every block that entered the fabric is either resident,
// in transit, evicted to the next level, or was dropped clean at an exit
// corner (which the counters record).
func TestBlockConservation(t *testing.T) {
	h := newFabHarness(t, 2)
	rng := sim.NewRand(321)
	var id uint64
	// Small footprint: heavy churn through the corners.
	for cyc := 0; cyc < 3000; cyc++ {
		if h.up.Down.CanPush() && rng.Bool(0.5) {
			id++
			h.read(id, mem.Addr(rng.Intn(1<<13))&^0x1F)
		}
		h.k.Step()
	}
	for i := 0; i < 2000 && uint64(len(h.got)) < id; i++ {
		h.k.Step()
	}
	if uint64(len(h.got)) != id {
		t.Fatalf("only %d of %d reads completed", len(h.got), id)
	}
	// Conservation: everything delivered into the fabric either stays or
	// leaves through a counted path.
	entered := h.f.C.L3Fills // every fabric block entered via an L3 fill
	left := h.f.C.ExitDrops + h.f.C.ExitWritebacks
	resident := uint64(h.f.TotalBlocks())
	inTransit := uint64(0)
	for _, l := range h.f.allU {
		inTransit += uint64(l.len())
	}
	for _, l := range h.f.allD {
		inTransit += uint64(len(l.ch.Snapshot()))
	}
	if entered != left+resident+inTransit {
		t.Fatalf("conservation violated: entered %d != left %d + resident %d + in-transit %d",
			entered, left, resident, inTransit)
	}
}

// TestExclusionPropertyRandomConfigs drives random small configurations
// with random traffic and checks the exclusion invariant throughout.
func TestExclusionPropertyRandomConfigs(t *testing.T) {
	f := func(seed uint64, levelSel, footSel uint8) bool {
		levels := 2 + int(levelSel%3)
		h := newFabHarness(t, levels)
		foot := 1 << (12 + footSel%4) // 4..32KB footprints
		rng := sim.NewRand(seed | 1)
		var id uint64
		for cyc := 0; cyc < 800; cyc++ {
			if h.up.Down.CanPush() && rng.Bool(0.5) {
				addr := mem.Addr(rng.Intn(foot)) &^ 0x1F
				if rng.Bool(0.3) {
					h.write(addr)
				} else {
					id++
					h.read(id, addr)
				}
			}
			h.k.Step()
			if err := h.f.CheckExclusion(); err != nil {
				t.Logf("levels=%d foot=%d: %v", levels, foot, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestSearchBandwidthMatchesRTile checks goal (iv) of Section III: the
// fabric accepts one search per cycle without collapsing under a burst of
// distinct misses.
func TestSearchBandwidthMatchesRTile(t *testing.T) {
	h := newFabHarness(t, 3)
	// 12 distinct cold misses as fast as the port allows.
	for i := 0; i < 12; i++ {
		h.read(uint64(i+1), mem.Addr(0x40000+i*0x2000))
		h.k.Step()
	}
	for i := 0; i < 500 && len(h.got) < 12; i++ {
		h.k.Step()
	}
	if len(h.got) != 12 {
		t.Fatalf("only %d of 12 burst misses completed", len(h.got))
	}
	if h.f.C.SearchesLaunched != 12 {
		t.Fatalf("searches launched = %d, want 12", h.f.C.SearchesLaunched)
	}
}

// TestReplacementStarvationFreedom: under continuous search traffic the
// replacement network still makes progress during idle cycles — victims
// eventually reach tiles rather than wedging the r-tile.
func TestReplacementStarvationFreedom(t *testing.T) {
	h := newFabHarness(t, 2)
	rng := sim.NewRand(5)
	var id uint64
	// Constant pressure on one r-tile set (stride = 8KB for the 32KB
	// 4-way r-tile) forces evictions while searches keep flowing.
	for cyc := 0; cyc < 4000; cyc++ {
		if h.up.Down.CanPush() {
			id++
			h.read(id, mem.Addr(0x20)+mem.Addr(rng.Intn(16))*0x2000)
		}
		h.k.Step()
	}
	if h.f.C.RTileEvictions == 0 {
		t.Fatal("no r-tile evictions despite set pressure")
	}
	if h.f.TotalBlocks() == h.f.RTileBank().Occupancy() {
		t.Fatal("victims never written into tiles: replacement starved")
	}
	if h.f.C.StallNoVictimSlot > h.f.C.RTileFills {
		t.Fatalf("victim-slot stalls (%d) exceed fills (%d): fabric wedged",
			h.f.C.StallNoVictimSlot, h.f.C.RTileFills)
	}
}

// TestDeterministicRoutingOption checks the ablation knob produces a
// valid (and different) execution.
func TestDeterministicRoutingOption(t *testing.T) {
	run := func(det bool) uint64 {
		up := mem.NewPort(16, 16)
		down := mem.NewPort(16, 16)
		var ids mem.IDSource
		cfg := DefaultConfig(3)
		cfg.DeterministicRouting = det
		f, err := NewFabric(cfg, up, down, &ids)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		k.MustRegister(f)
		// Drive transport directly: plant blocks, search them.
		for i := range f.tiles {
			f.TileBank(i).Fill(mem.Addr(0x8000+i*0x20), false)
		}
		drv := &detDriver{up: up, down: down, n: len(f.tiles)}
		k.MustRegister(drv)
		k.Run(2000)
		if drv.done != uint64(len(f.tiles)) {
			t.Fatalf("det=%v: %d of %d hits delivered", det, drv.done, len(f.tiles))
		}
		return f.C.TransportHops
	}
	run(true)
	run(false)
}

type detDriver struct {
	up, down *mem.Port
	n        int
	issued   int
	done     uint64
}

func (d *detDriver) Name() string { return "driver" }
func (d *detDriver) Eval(k *sim.Kernel) {
	for {
		if _, ok := d.up.Up.Pop(); !ok {
			break
		}
		d.done++
	}
	for {
		req, ok := d.down.Down.Pop()
		if !ok {
			break
		}
		if req.Kind == mem.Read && d.down.Up.CanPush() {
			d.down.Up.Push(mem.Resp{ID: req.ID, Addr: req.Addr})
		}
	}
	if d.issued < d.n && d.up.Down.CanPush() {
		d.up.Down.Push(mem.Req{
			ID: uint64(d.issued + 1), Addr: mem.Addr(0x8000 + d.issued*0x20),
			Kind: mem.Read, Issued: k.Cycle(),
		})
		d.issued++
	}
	if d.done >= uint64(d.n) {
		k.Stop()
	}
}
func (d *detDriver) Commit(k *sim.Kernel) {
	d.up.Down.Tick()
	d.down.Up.Tick()
}
