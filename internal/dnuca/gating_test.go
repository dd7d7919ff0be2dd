package dnuca

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// blockedHead builds a D-NUCA whose upstream head read is permanently
// stalled: the MSHR is saturated by a miss that memory never answers.
// With secondary == 0 and the second read aimed at the same line, the
// head blocks on a merge reject; aimed at a different line, it blocks
// on a full MSHR. Both states re-run acceptRead — and count a read —
// every ungated cycle, which is exactly what SkipTo must replay.
func blockedHead(t *testing.T, sameLine bool) (*DNUCA, *sim.Kernel, *mem.Port) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MSHREntries = 1
	cfg.MSHRSecondary = 0
	up := mem.NewPort(8, 8)
	down := mem.NewPort(8, 8)
	var ids mem.IDSource
	d, err := New(cfg, up, down, &ids)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	k.SetGating(false)
	k.MustRegister(d)

	up.Down.Push(mem.Req{ID: 1, Addr: 0x10000, Kind: mem.Read})
	up.Down.Tick()
	k.Run(300) // search multicasts, all banks nack, fetch leaves; DRAM never answers

	second := mem.Addr(0x50000)
	if sameLine {
		second = 0x10000
	}
	up.Down.Push(mem.Req{ID: 2, Addr: second, Kind: mem.Read})
	up.Down.Tick()
	k.Run(20) // settle into the blocked-head steady state
	return d, k, up
}

// TestSkipToReplaysBlockedReadHead: N idle Evals of a blocked read head
// and one SkipTo over N cycles must move every counter identically —
// including the per-cycle Reads re-count of the retried acceptRead.
// (Regression: SkipTo used to drop those reads, so gated and ungated
// dn.reads diverged in exactly the DRAM-stall state gating targets.)
func TestSkipToReplaysBlockedReadHead(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sameLine bool
	}{
		{"mshr-full", false},
		{"merge-reject", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 100
			stepped, sk, _ := blockedHead(t, tc.sameLine)
			skipped, kk, _ := blockedHead(t, tc.sameLine)
			if stepped.Reads != skipped.Reads || stepped.mshr.MergeRejects != skipped.mshr.MergeRejects {
				t.Fatalf("twins diverged before the experiment")
			}

			sk.Run(n) // ungated: n real Evals of the blocked head

			now := kk.Cycle()
			wake, idle := skipped.NextEvent(now)
			if !idle {
				t.Fatalf("blocked head not classified idle (wake %d)", wake)
			}
			skipped.SkipTo(now, now+n)

			if stepped.Reads != skipped.Reads {
				t.Errorf("Reads: %d stepped vs %d skipped over %d cycles", stepped.Reads, skipped.Reads, n)
			}
			if stepped.mshr.MergeRejects != skipped.mshr.MergeRejects {
				t.Errorf("MergeRejects: %d stepped vs %d skipped", stepped.mshr.MergeRejects, skipped.mshr.MergeRejects)
			}
			if stepped.ReadHits != skipped.ReadHits || stepped.ReadMisses != skipped.ReadMisses {
				t.Errorf("hit/miss counters diverged: %d/%d vs %d/%d",
					stepped.ReadHits, stepped.ReadMisses, skipped.ReadHits, skipped.ReadMisses)
			}
		})
	}
}

// refNextEvent is NextEvent as it stood before the bank set, verbatim
// but for the receiver: it scans every bank. The load test below holds
// the production NextEvent to it on every cycle.
func refNextEvent(d *DNUCA, now sim.Cycle) (sim.Cycle, bool) {
	d.skipMergeRejects, d.skipWBufRejects, d.skipBlockedReads = 0, 0, 0
	if len(d.injectQ) > 0 || !d.mesh.Quiet() {
		return 0, false
	}
	wake := sim.Never
	for _, b := range d.banks {
		if b.jobs.Len() == 0 {
			continue
		}
		if b.busyUntil <= now {
			return 0, false
		}
		if b.busyUntil < wake {
			wake = b.busyUntil
		}
	}
	if d.down.Up.Len() > 0 {
		return 0, false
	}
	if req, ok := d.up.Down.Peek(); ok {
		line := req.Addr.Line(d.cfg.Bank.BlockBytes)
		if req.Kind == mem.Read {
			switch m := d.mshr.Lookup(line); {
			case d.wbuf.Contains(line):
				return 0, false
			case m != nil:
				if d.mshr.CanMerge(m) {
					return 0, false
				}
				d.skipMergeRejects++
				d.skipBlockedReads++
			case d.mshr.Full():
				d.skipBlockedReads++
			default:
				return 0, false
			}
		} else {
			if d.wbuf.Contains(line) || !d.wbuf.Full() {
				return 0, false
			}
			d.skipWBufRejects++
		}
	}
	if e, ok := d.wbuf.Peek(); ok {
		switch m := d.mshr.Lookup(e.Line); {
		case m != nil:
			if d.mshr.CanMerge(m) {
				return 0, false
			}
			d.skipMergeRejects++
		case d.search(e.Line) != nil:
		case !d.mshr.Full():
			return 0, false
		}
	}
	if d.memQ.Len() > 0 && d.down.Down.CanPush() {
		return 0, false
	}
	if d.pendingResp.Len() > 0 && d.up.Up.CanPush() {
		return 0, false
	}
	return wake, true
}

// TestNextEventMatchesFullBankScan: under bursty load, on every cycle,
// NextEvent's (wake, idle) and reject bookkeeping equal the full-scan
// reference's, the bank set is exactly the banks with queued jobs, and
// the mesh's invariants hold.
func TestNextEventMatchesFullBankScan(t *testing.T) {
	cfg := DefaultConfig()
	// A long initiation interval keeps banks busy past the moment the
	// mesh drains, so queued jobs wait on a timed wake.
	cfg.BankInitiation = 12
	h := newDNHarness(t, cfg)
	rng := sim.NewRand(17)
	var id uint64
	idle, timed := 0, 0
	for cyc := 0; cyc < 30000; cyc++ {
		// Bursts of traffic to a few bank sets, then silence long enough
		// for the mesh to drain while banks still hold work.
		if cyc%400 < 120 && h.up.Down.CanPush() && rng.Bool(0.5) {
			addr := mem.Addr(rng.Intn(1<<20)) &^ 0x7F
			if rng.Bool(0.3) {
				h.write(addr)
			} else {
				id++
				h.read(id, addr)
			}
		}
		now := h.k.Cycle()
		wantWake, wantIdle := refNextEvent(h.d, now)
		want := [3]uint64{h.d.skipMergeRejects, h.d.skipWBufRejects, h.d.skipBlockedReads}
		gotWake, gotIdle := h.d.NextEvent(now)
		got := [3]uint64{h.d.skipMergeRejects, h.d.skipWBufRejects, h.d.skipBlockedReads}
		if gotWake != wantWake || gotIdle != wantIdle || got != want {
			t.Fatalf("cycle %d: NextEvent = (%d, %v) rejects %v, full scan (%d, %v) rejects %v",
				now, gotWake, gotIdle, got, wantWake, wantIdle, want)
		}
		if gotIdle {
			idle++
			if gotWake != sim.Never {
				timed++
			}
		}
		for i, b := range h.d.banks {
			if h.d.queued.Has(i) != (b.jobs.Len() > 0) {
				t.Fatalf("cycle %d: bank %d in set = %v with %d queued jobs",
					now, i, h.d.queued.Has(i), b.jobs.Len())
			}
		}
		if err := h.d.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		h.k.Step()
	}
	// Reads still queued when the traffic stops complete, at bank
	// throughput, within a bounded drain.
	for i := 0; i < 10000 && uint64(len(h.got)) != id; i++ {
		h.k.Step()
	}
	if uint64(len(h.got)) != id {
		t.Fatalf("completed %d of %d reads", len(h.got), id)
	}
	t.Logf("%d idle cycles, %d of them with a timed bank wake", idle, timed)
	if idle == 0 || timed == 0 {
		t.Fatalf("load never reached the states under test: %d idle cycles, %d with a timed bank wake", idle, timed)
	}
}
