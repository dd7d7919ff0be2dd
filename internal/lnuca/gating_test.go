package lnuca

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestRefusedReadCountedOnce: a read the r-tile's full MSHR file
// refuses for hundreds of cycles is counted once, when it gets in, on a
// kernel that steps every cycle and on one that lets the fabric sleep
// through the wait.
func TestRefusedReadCountedOnce(t *testing.T) {
	for _, gated := range []bool{false, true} {
		t.Run(fmt.Sprintf("gated=%v", gated), func(t *testing.T) {
			h := newFabHarness(t, 2)
			h.l3.delay = 300
			h.k.SetGating(gated)
			n := uint64(h.f.cfg.MSHREntries + 1) // one more cold miss than MSHRs
			for id := uint64(1); id <= n; {
				if h.up.Down.CanPush() {
					h.read(id, coldBase+mem.Addr(id)<<5)
					id++
				}
				h.k.Run(1)
			}
			h.k.Run(100)
			if h.f.MSHROccupancy() != h.f.cfg.MSHREntries || h.up.Down.Len() != 1 {
				t.Fatalf("%d MSHRs held and %d reads queued, want all %d and the last read refused",
					h.f.MSHROccupancy(), h.up.Down.Len(), h.f.cfg.MSHREntries)
			}
			h.k.Run(1000)
			if uint64(len(h.got)) != n {
				t.Fatalf("%d of %d reads answered", len(h.got), n)
			}
			if c := h.f.C; c.RTileReads != n || c.RTileReadMisses != n {
				t.Errorf("rt_reads %d, rt_read_misses %d, want %d each: a refused read counts once",
					c.RTileReads, c.RTileReadMisses, n)
			}
		})
	}
}

// heldBelow is a next level that never takes a request, so the fabric's
// write buffer cannot drain, and that sends fills of distinct lines the
// fabric never asked for as fast as its port allows.
type heldBelow struct {
	port *mem.Port
	next mem.Addr
}

func (l *heldBelow) Name() string { return "held" }

func (l *heldBelow) Eval(k *sim.Kernel) {
	if l.port.Up.CanPush() {
		l.port.Up.Push(mem.Resp{Addr: l.next})
		l.next += 32
	}
}

func (l *heldBelow) Commit(k *sim.Kernel) { l.port.Up.Tick() }

func (l *heldBelow) Wire(w sim.Waker) { l.port.WireBelow(w) }

func (l *heldBelow) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	return sim.Never, !l.port.Up.CanPush()
}

func (l *heldBelow) SkipTo(now, target sim.Cycle) {}

// TestSkipToReplaysNoVictimSlotStall: with every tile and the r-tile
// full of dirty blocks and the port below held, the fills back the
// Replacement network up into the r-tile's victim links until a fill
// waits for a victim slot and the fabric sleeps. On a gated kernel its
// SkipTo then stands in for the skipped Evals, and must count the same
// no-victim-slot stalls, and every other counter, as Eval every cycle.
func TestSkipToReplaysNoVictimSlotStall(t *testing.T) {
	run := func(gated bool) (*Fabric, *sim.Kernel) {
		cfg := DefaultConfig(2)
		cfg.WriteBufEntries = 1
		up, down := mem.NewPort(2, 2), mem.NewPort(1, 1)
		f, err := NewFabric(cfg, up, down, &mem.IDSource{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.tiles {
			b := f.TileBank(i)
			for l := 0; l < b.Config().SizeBytes; l += 32 {
				b.Fill(mem.Addr(i<<16+l), true)
			}
		}
		for l := 0; l < cfg.RTileBank.SizeBytes; l += 32 {
			f.rtile.Fill(mem.Addr(1<<22+l), true)
		}
		k := sim.NewKernel()
		k.MustRegister(f)
		k.MustRegister(&heldBelow{port: down, next: coldBase})
		k.SetGating(gated)
		k.Run(20000)
		return f, k
	}
	stepped, _ := run(false)
	skipped, k := run(true)
	if _, idle := skipped.NextEvent(k.Cycle()); !idle {
		t.Fatalf("the fabric ended awake")
	}
	if k.EvalsSkipped < 10000 {
		t.Fatalf("the gated kernel skipped %d Evals: the fabric never slept", k.EvalsSkipped)
	}
	if !reflect.DeepEqual(stepped.C, skipped.C) {
		t.Errorf("counters differ:\n stepped %+v\n gated   %+v", stepped.C, skipped.C)
	}
	if stepped.C.StallNoVictimSlot < 10000 {
		t.Errorf("%d no-victim-slot stalls in 20000 cycles: the fill never stayed blocked", stepped.C.StallNoVictimSlot)
	}
	// The fabric slept with a fill waiting for a victim slot: one more
	// cycle of it is one more such stall.
	n := skipped.C.StallNoVictimSlot
	k.Step()
	if got := skipped.C.StallNoVictimSlot - n; got != 1 {
		t.Errorf("a Step of the sleeping fabric added %d no-victim-slot stalls, want 1", got)
	}
}
