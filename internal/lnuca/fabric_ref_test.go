package lnuca

// The full-scan fabric as it stood before the activity sets: Eval makes
// four passes over every tile, Commit ticks every MA register and every
// link, NextEvent scans every tile three times. Eval, Commit, the three
// per-tile passes, NextEvent and SkipTo are kept verbatim as the
// reference the production Fabric is compared against, cycle by cycle
// (fabric_equiv_test.go); only the receiver changed, and transMsg lost
// the write-only level field. Everything the scans call that did not
// change — the r-tile, the global-miss logic, link choice, eviction —
// is the embedded Fabric's own, so the two differ in exactly what is
// walked. The reference pops Transport links behind the activity sets'
// back (in.ch.Pop) and never reads the sets: it ticks everything.

import (
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// refFabric is a Fabric driven by the full scans.
type refFabric struct{ *Fabric }

// Eval implements sim.Component.
func (f *refFabric) Eval(k *sim.Kernel) {
	now := k.Cycle()
	f.launchedNow = false
	f.votes = f.votes[:0]

	f.evalSearch(now)
	f.evalGlobalMiss(now)
	f.evalTransportForward(now)
	f.evalReplacement(now)
	f.evalRTile(now)
	f.evalRetries(now)
	f.drainOutputs(now)
}

// Commit implements sim.Component.
func (f *refFabric) Commit(k *sim.Kernel) {
	for _, t := range f.tiles {
		t.ma.Tick()
	}
	for _, l := range f.allD {
		l.tick()
	}
	for _, l := range f.allU {
		l.tick()
	}
	f.up.Up.Tick()
	f.down.Down.Tick()
}

// evalSearch runs the Search operation on every tile whose MA register
// holds a request: tag lookup in parallel with the U-buffer comparators,
// hit extraction into the Transport network, miss propagation to the leaf
// tiles, and miss voting at the last level (Sections II, III).
func (f *refFabric) evalSearch(now sim.Cycle) {
	for _, t := range f.tiles {
		msg, ok := t.ma.Get()
		if !ok {
			continue
		}
		f.C.SearchLookups++
		line := msg.line

		// Tag array and U-buffer comparators look up in parallel.
		inBank := t.bank.Probe(line)
		var inU *ulink
		for _, l := range t.uIn {
			f.C.UCompares += uint64(l.len())
			if l.contains(line) {
				inU = l
			}
		}

		if inBank || inU != nil {
			// Choose a Transport output among the On links (random,
			// distributed routing, Section III.B).
			out := f.pickDLink(t.dOut)
			if out == nil {
				// All output D channels Off: contention-marked search
				// continues so the global-miss logic bounces the request
				// back to the r-tile (Section III.C). The block stays.
				f.C.MarkedRestarts++
				msg.marked = true
				f.propagate(t, msg)
				continue
			}
			var blk blockMsg
			if inU != nil {
				blk, _ = inU.remove(line)
				t.UHits++
				f.C.UHitsTotal++
			} else {
				dirty, _ := t.bank.Invalidate(line)
				blk = blockMsg{line: line, dirty: dirty}
				f.C.TileDataReads++
			}
			t.Hits++
			f.C.TileHitsByLevel[t.site.Level]++
			if msg.isRead {
				f.C.TileReadHitsByLevel[t.site.Level]++
			}
			out.send(transMsg{
				blk:      blk,
				hitCycle: now,
				minHops:  noc.Manhattan(t.site.Pos, noc.Coord{}),
			})
			continue
		}
		// Miss: propagate outwards, or vote at the last level.
		f.propagate(t, msg)
	}
}

// evalTransportForward moves messages already in the Transport network one
// hop closer to the r-tile (store-and-forward, one message per output link
// per cycle; hit injections from evalSearch have already claimed theirs).
func (f *refFabric) evalTransportForward(now sim.Cycle) {
	for _, t := range f.tiles {
		for _, in := range t.dIn {
			m, ok := in.ch.Peek()
			if !ok {
				continue
			}
			out := f.pickDLink(t.dOut)
			if out == nil {
				continue // back-pressure: message waits in the buffer
			}
			in.ch.Pop()
			out.send(m)
			f.C.TransportHops++
		}
	}
}

// evalReplacement runs the domino eviction protocol on search-idle tiles:
// one array action per tile per cycle — either write the incoming block
// (when its set has room) or read out a victim into an On output channel
// to make room (Section III.C).
func (f *refFabric) evalReplacement(now sim.Cycle) {
	for _, t := range f.tiles {
		if t.ma.Valid() {
			continue // Replacement only uses Search-idle cycles.
		}
		// Round-robin the input links so neither starves.
		n := len(t.uIn)
		if n == 0 {
			continue
		}
		for k := 0; k < n; k++ {
			in := t.uIn[(t.rrIn+k)%n]
			blk, ok := in.peek()
			if !ok {
				continue
			}
			if t.bank.HasSpace(blk.line) {
				in.pop()
				t.bank.Fill(blk.line, blk.dirty)
				f.C.TileFillWrites++
			} else if !f.evictFrom(t, blk.line) {
				continue // no room and no On output: wait
			}
			t.rrIn = (t.rrIn + k + 1) % n
			break // one array action per cycle
		}
	}
}

// NextEvent implements sim.Quiescent. The fabric is idle only when no
// search is in flight, no message on any of the three networks can move,
// no queued launch/retry/global miss is due, and the r-tile can make no
// progress on CPU requests, stores, fills or responses. Timed wakes come
// from the retry and global-miss queues; everything else waits on
// external input. Blocked states that tick counters every cycle (the
// no-victim-slot stall, MSHR-full stalls, merge rejects, and the blocked
// read head re-counting rt_reads/rt_read_misses) are recorded for SkipTo.
func (f *refFabric) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	wake := sim.Never
	f.skipNoVictim, f.skipMSHRFull, f.skipMergeRejects, f.skipBlockedReads = 0, 0, 0, 0

	// A pending search launch or an in-flight search always acts.
	if f.searchQ.Len() > 0 {
		return 0, false
	}
	for _, t := range f.tiles {
		if t.ma.Valid() {
			return 0, false
		}
	}
	// Timed queues.
	for i := range f.retryQ {
		switch at := f.retryQ[i].at; {
		case at <= now:
			return 0, false
		case at < wake:
			wake = at
		}
	}
	if f.gmQ.Len() > 0 {
		switch r := f.gmQ.Front().readyAt; {
		case r <= now:
			return 0, false
		case r < wake:
			wake = r
		}
	}
	// Transport forwarding: a buffered message moves when its tile has
	// any On output (blocked messages wait silently).
	for _, t := range f.tiles {
		for _, in := range t.dIn {
			if in.ch.Len() > 0 && anyDLinkOn(t.dOut) {
				return 0, false
			}
		}
	}
	// Replacement: a tile with an incoming block acts when its set has
	// room or a victim can leave (exit corners drop clean victims and
	// need write-buffer space for dirty ones).
	for _, t := range f.tiles {
		for _, in := range t.uIn {
			blk, ok := in.peek()
			if !ok {
				continue
			}
			if t.bank.HasSpace(blk.line) {
				return 0, false
			}
			if t.site.ExitsToNextLevel {
				v, full := t.bank.VictimFor(blk.line)
				if !full || !v.Dirty || !f.wbuf.Full() {
					return 0, false
				}
			} else if anyULinkOn(t.uOut) {
				return 0, false
			}
		}
	}
	// R-tile arrivals: Transport deliveries and L3 fills; each blocked
	// head ticks the no-victim-slot stall once per cycle.
	for _, in := range f.rtDIn {
		m, ok := in.ch.Peek()
		if !ok {
			continue
		}
		if f.canFillRTile(m.blk.line) {
			return 0, false
		}
		f.skipNoVictim++
	}
	if resp, ok := f.down.Up.Peek(); ok {
		if f.canFillRTile(resp.Addr.Line(f.cfg.RTileBank.BlockBytes)) {
			return 0, false
		}
		f.skipNoVictim++
	}
	// CPU request head.
	if req, ok := f.up.Down.Peek(); ok {
		line := req.Addr.Line(f.cfg.RTileBank.BlockBytes)
		switch req.Kind {
		case mem.Read:
			if f.rtile.Probe(line) || f.wbuf.Contains(line) || !f.missCPUIdle(line) {
				return 0, false
			}
			// The blocked read head re-runs its lookup every cycle,
			// re-counting a read and a read miss.
			f.skipBlockedReads++
		default:
			if f.storeQ.Len() < 8 {
				return 0, false
			}
		}
	}
	// Store-queue head.
	if f.storeQ.Len() > 0 {
		line := (*f.storeQ.Front()).Addr.Line(f.cfg.RTileBank.BlockBytes)
		if f.rtile.Probe(line) || !f.missCPUIdle(line) {
			return 0, false
		}
	}
	// Responses and downstream outputs.
	if f.pendingResp.Len() > 0 && f.up.Up.CanPush() {
		return 0, false
	}
	if f.down.Down.CanPush() && (f.toL3Q.Len() > 0 || f.wbuf.Len() > 0) {
		return 0, false
	}
	return wake, true
}

// SkipTo implements sim.Quiescent.
func (f *refFabric) SkipTo(now, target sim.Cycle) {
	delta := target - now
	f.C.StallNoVictimSlot += f.skipNoVictim * delta
	f.C.StallMSHRFull += f.skipMSHRFull * delta
	f.mshr.MergeRejects += f.skipMergeRejects * delta
	f.C.RTileReads += f.skipBlockedReads * delta
	f.C.RTileReadMisses += f.skipBlockedReads * delta
}
