package dnuca

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// blockedHead builds a D-NUCA whose upstream head read is permanently
// stalled: the MSHR is saturated by a miss that memory never answers.
// With secondary == 0 and the second read aimed at the same line, the
// head blocks on a merge reject; aimed at a different line, it blocks
// on a full MSHR. Both states re-run acceptRead every ungated cycle,
// which counts nothing until the read gets in. The returned kernel
// steps every cycle until the caller turns gating on.
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
// and one SkipTo over N cycles must leave the same reads counted, the
// same MSHRs held and the head still queued. (Regression: gated and
// ungated dn.reads once diverged in exactly this DRAM-stall state.)
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
			stepped, sk, sup := blockedHead(t, tc.sameLine)
			skipped, kk, kup := blockedHead(t, tc.sameLine)
			if stepped.Reads != skipped.Reads {
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
			if stepped.MSHROccupancy() != skipped.MSHROccupancy() || sup.Down.Len() != 1 || kup.Down.Len() != 1 {
				t.Errorf("%d MSHRs and %d queued reads stepped, %d and %d skipped; want the head still refused",
					stepped.MSHROccupancy(), sup.Down.Len(), skipped.MSHROccupancy(), kup.Down.Len())
			}
		})
	}
}

// TestRefusedReadCountedOnce: a read the full MSHR file refuses for
// hundreds of cycles is counted once, when the fill that frees the MSHR
// lets it in, on a kernel that steps every cycle and on one that lets
// the D-NUCA sleep through the wait.
func TestRefusedReadCountedOnce(t *testing.T) {
	for _, sameLine := range []bool{false, true} {
		for _, gated := range []bool{false, true} {
			t.Run(fmt.Sprintf("sameLine=%v/gated=%v", sameLine, gated), func(t *testing.T) {
				d, k, up := blockedHead(t, sameLine)
				k.SetGating(gated)
				k.Run(500)
				if d.Reads != 1 || up.Down.Len() != 1 {
					t.Fatalf("%d reads counted, %d queued while the MSHR is held; want 1 and the second refused",
						d.Reads, up.Down.Len())
				}
				fetch, ok := d.down.Down.Pop()
				if !ok {
					t.Fatal("no fetch reached memory")
				}
				d.down.Up.Push(mem.Resp{ID: fetch.ID, Addr: fetch.Addr})
				d.down.Up.Tick()
				k.Run(300)
				if d.Reads != 2 || up.Down.Len() != 0 {
					t.Errorf("%d reads counted, %d queued after the fill; want 2 and none: a refused read counts once",
						d.Reads, up.Down.Len())
				}
			})
		}
	}
}

// dnWords flattens what the D-NUCA shows between cycles — its counters
// but Reads, queue depths and banks, its mesh's traffic, the memory
// reads and the responses delivered — for the gated-against-stepped
// comparison and the digest. Reads is compared on its own: it counted
// a refused read once per cycle when the digest was recorded.
func dnWords(h *dnHarness) []uint64 {
	d := h.d
	w := []uint64{d.Writes, d.Promotions, d.Demotions, d.Fills,
		d.Writebacks, d.BankAccesses, d.GlobalMisses, d.SearchLatencySum, d.SearchesResolved,
		d.mesh.MsgsInjected, d.mesh.MsgsDelivered, d.mesh.FlitHops,
		h.mm.Reads, uint64(len(d.injectQ)), uint64(d.memQ.Len()), uint64(d.pendingResp.Len()),
		uint64(len(d.searches)), uint64(d.mshr.Len()), uint64(d.wbuf.Len()), uint64(len(h.got))}
	w = append(w, d.HitsByRow...)
	for _, b := range d.banks {
		w = append(w, b.busyUntil, uint64(b.jobs.Len()))
	}
	var done uint64 // the delivery cycles, summed: the map's order is random
	for _, c := range h.got {
		done += c
	}
	return append(w, done)
}

// fold mixes words into the running FNV-1a digest d.
func fold(d uint64, words ...uint64) uint64 {
	for _, w := range words {
		d = (d ^ w) * 0x100000001b3
	}
	return d
}

// bankScanDigest folds dnWords for every cycle of
// TestNextEventMatchesFullBankScan's stepped machine. The first digest was
// recorded at commit e8e60a4, where the same loop also held NextEvent to
// a reference that scanned every bank instead of the bank set, on every
// cycle, and passed: the digest is that scan's behaviour on this traffic.
// It was re-recorded at commit cb2a50f over the same fold less the reject
// counts and the counters the D-NUCA no longer keeps, and less Reads, and
// at commit 3161d64 over this fold, which keeps the per-cycle state and
// no longer NextEvent's answers. It changes only with a deliberate change
// to the D-NUCA, recorded in CHANGES.md, and never to turn the test green.
const bankScanDigest uint64 = 0x12c78ae2b2b76fdb

// TestNextEventMatchesFullBankScan: under bursty load, a D-NUCA on a
// gated kernel — asleep between requests, fast-forwarded over bank waits
// — is in the state of its twin on a kernel that steps every cycle
// whenever the two meet: at every request and after the drain. On every
// cycle of the stepped twin the bank set is exactly the banks with
// queued jobs and the mesh's invariants hold, and its state folds into
// bankScanDigest.
func TestNextEventMatchesFullBankScan(t *testing.T) {
	cfg := DefaultConfig()
	// A long initiation interval keeps banks busy past the moment the
	// mesh drains, so queued jobs wait on a timed wake.
	cfg.BankInitiation = 12
	stepped, gated := newDNHarness(t, cfg), newDNHarness(t, cfg)
	stepped.k.SetGating(false)
	// meet runs the gated twin up to the stepped one's cycle and requires
	// the same state.
	meet := func() {
		t.Helper()
		gated.k.Run(stepped.k.Cycle() - gated.k.Cycle())
		g, s := dnWords(gated), dnWords(stepped)
		for i := range s {
			if g[i] != s[i] {
				t.Fatalf("cycle %d: gated D-NUCA word %d = %d, stepped %d\n gated   %v\n stepped %v",
					stepped.k.Cycle(), i, g[i], s[i], g, s)
			}
		}
		if gated.d.Reads != stepped.d.Reads {
			t.Fatalf("cycle %d: gated D-NUCA counted %d reads, stepped %d", stepped.k.Cycle(), gated.d.Reads, stepped.d.Reads)
		}
	}
	rng := sim.NewRand(17)
	var id uint64
	dig := uint64(0xcbf29ce484222325)
	idle, timed, blocked := 0, 0, 0
	for cyc := 0; cyc < 30000; cyc++ {
		// Bursts of traffic to a few bank sets, then silence long enough
		// for the mesh to drain while banks still hold work.
		if cyc%400 < 120 && stepped.up.Down.CanPush() && rng.Bool(0.5) {
			meet()
			addr := mem.Addr(rng.Intn(1<<20)) &^ 0x7F
			if rng.Bool(0.3) {
				stepped.write(addr)
				gated.write(addr)
			} else {
				id++
				stepped.read(id, addr)
				gated.read(id, addr)
			}
		}
		d, now := stepped.d, stepped.k.Cycle()
		dig = fold(dig, now)
		dig = fold(dig, dnWords(stepped)...)
		wake, isIdle := d.NextEvent(now)
		if isIdle {
			idle++
			if wake != sim.Never {
				timed++
			}
			if req, ok := stepped.up.Down.Peek(); ok && req.Kind == mem.Read && d.readBlocked(req.Addr.Line(cfg.Bank.BlockBytes)) {
				blocked++
			}
		}
		for i, b := range d.banks {
			if d.queued.Has(i) != (b.jobs.Len() > 0) {
				t.Fatalf("cycle %d: bank %d in set = %v with %d queued jobs",
					now, i, d.queued.Has(i), b.jobs.Len())
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		stepped.k.Step()
	}
	meet()
	// Reads still queued when the traffic stops complete, at bank
	// throughput, within a bounded drain.
	for i := 0; i < 10000 && uint64(len(stepped.got)) != id; i++ {
		stepped.k.Step()
	}
	meet()
	if uint64(len(stepped.got)) != id {
		t.Fatalf("completed %d of %d reads", len(stepped.got), id)
	}
	if dig != bankScanDigest {
		t.Errorf("digest %#x, recorded %#x: the D-NUCA's cycles differ from the full bank scan's", dig, bankScanDigest)
	}
	t.Logf("%d idle cycles, %d with a timed bank wake, %d with a blocked read; gated: %d fast-forwards over %d cycles",
		idle, timed, blocked, gated.k.FastForwards, gated.k.SkippedCycles)
	if idle == 0 || timed == 0 || blocked == 0 || gated.k.FastForwards == 0 {
		t.Fatalf("load never reached the states under test: %d idle cycles, %d with a timed bank wake, %d with a blocked read, %d fast-forwards",
			idle, timed, blocked, gated.k.FastForwards)
	}
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
