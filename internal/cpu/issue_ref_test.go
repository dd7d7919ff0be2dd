package cpu

// The polling issue stage as it stood before the wake lists: three
// slices of ROB seqs, every entry's producers probed every cycle by
// issueFrom, and probed again by NextEvent's scan. depReady, issueFrom,
// issue, dispatch and NextEvent are kept verbatim as the reference the
// production Core is compared against, cycle by cycle (issue_equiv_test.go);
// only the receiver changed, and the hotalloc directives went. Everything
// they call that did not change — tryExecute, commit, fetch, the store
// buffer, the TLB — is the embedded Core's own, so the two differ in
// exactly how an op is found ready. The reference never links a wake
// list and never reads a candidate set; the embedded Core's are empty.

import "repro/internal/sim"

// refCore is a Core driven by the polling issue stage.
type refCore struct {
	*Core
	// Issue queues hold ROB seqs awaiting issue.
	intQ, fpQ, memQ []uint64
}

// Eval implements sim.Component.
func (c *refCore) Eval(k *sim.Kernel) {
	now := k.Cycle()
	c.Cycles++
	c.drainResponses(now)
	c.commit(now, k)
	c.drainStoreBuffer(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
	if c.streamDone && c.robOccupancy() == 0 && c.decq.Len() == 0 {
		k.Stop()
	}
}

// depReady reports whether the producer at distance d from seq has a
// visible result at cycle now.
func (c *refCore) depReady(seq uint64, d int32, now sim.Cycle) bool {
	if d <= 0 {
		return true
	}
	if uint64(d) > seq {
		return true
	}
	p := seq - uint64(d)
	if p < c.headSeq {
		return true // already committed
	}
	e := c.robAt(p)
	return e.done && e.doneAt <= now
}

// issueFrom issues up to width ready ops from q (oldest first), returning
// the updated queue and the number of issue slots consumed.
func (c *refCore) issueFrom(q []uint64, width int, now sim.Cycle) ([]uint64, int) {
	if width <= 0 {
		return q, 0
	}
	used := 0
	kept := q[:0]
	for _, seq := range q {
		if used >= width {
			kept = append(kept, seq)
			continue
		}
		e := c.robAt(seq)
		if e.dispatched >= now || !c.depReady(seq, e.op.Dep1, now) || !c.depReady(seq, e.op.Dep2, now) {
			kept = append(kept, seq)
			continue
		}
		if !c.tryExecute(e, now) {
			kept = append(kept, seq)
			continue
		}
		used++
	}
	return kept, used
}

// issue runs both issue groups. INT and MEM share the 4 integer-side
// slots (Table I: "4(INT or MEM)"); memory ops get priority since loads
// gate dependents.
func (c *refCore) issue(now sim.Cycle) {
	var used int
	c.memQ, used = c.issueFrom(c.memQ, c.cfg.IntMemIssue, now)
	c.intQ, _ = c.issueFrom(c.intQ, c.cfg.IntMemIssue-used, now)
	c.fpQ, _ = c.issueFrom(c.fpQ, c.cfg.FPIssue, now)
}

// dispatch moves decoded ops into the ROB and issue queues.
func (c *refCore) dispatch(now sim.Cycle) {
	for c.decq.Len() > 0 {
		if c.robOccupancy() >= c.cfg.ROBSize {
			c.StallROBFull++
			return
		}
		op := c.decq.Front().op
		var q *[]uint64
		var limit int
		switch op.Class {
		case ClassFP:
			q, limit = &c.fpQ, c.cfg.FPIQ
		case ClassLoad, ClassStore:
			q, limit = &c.memQ, c.cfg.MemIQ
			if c.lsqCount >= c.cfg.LSQSize {
				c.StallLSQ++
				return
			}
		default:
			q, limit = &c.intQ, c.cfg.IntIQ
		}
		if len(*q) >= limit {
			c.StallIQFull++
			return
		}
		dec, _ := c.decq.Pop()
		seq := c.tailSeq
		c.tailSeq++
		*c.robAt(seq) = robEntry{op: op, seq: seq, dispatched: now, mispredict: dec.mispredict}
		if op.Class == ClassLoad || op.Class == ClassStore {
			c.lsqCount++
		}
		if op.Class == ClassBranch {
			c.Branches++
			if dec.mispredict {
				c.Mispredicts++
			}
		}
		*q = append(*q, seq)
	}
}

// NextEvent implements sim.Quiescent. The core is idle when no response
// is visible, nothing can retire, issue, dispatch, drain or fetch this
// cycle; its timed wakes are completion times of done-but-unretired or
// dependency-producing ops, issue eligibility (dispatched+1), and the
// post-misprediction fetch resume. Blocked phases that tick a stall
// counter every cycle (store buffer full, dispatch stalls, gated fetch)
// are recorded for SkipTo.
func (c *refCore) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	if c.port.Up.Len() > 0 {
		return 0, false // a response would be drained
	}
	if c.streamDone && c.robOccupancy() == 0 && c.decq.Len() == 0 {
		return 0, false // Eval must run to Stop the kernel
	}
	wake := sim.Never
	c.skipSB = false
	c.skipStall = nil
	c.skipFetchBlocked = false

	// Commit: can the head retire, and if not, when could it?
	if c.robOccupancy() > 0 {
		e := c.robAt(c.headSeq)
		if e.done {
			if e.doneAt <= now {
				if e.op.Class == ClassStore && c.storeBuf.Len() >= c.cfg.StoreBufSize {
					c.skipSB = true // StallSBFull ticks every blocked cycle
				} else {
					return 0, false
				}
			} else if e.doneAt < wake {
				wake = e.doneAt
			}
		}
		// !e.done: an in-flight load (external) or an un-issued op
		// (covered by the issue-queue scan below).
	}

	// Store buffer drain.
	if c.storeBuf.Len() > 0 && c.port.Down.CanPush() {
		return 0, false
	}

	// Dispatch: would the decode-queue head move into the ROB?
	if c.decq.Len() > 0 {
		switch op := c.decq.Front().op; {
		case c.robOccupancy() >= c.cfg.ROBSize:
			c.skipStall = &c.StallROBFull
		case (op.Class == ClassLoad || op.Class == ClassStore) && c.lsqCount >= c.cfg.LSQSize:
			c.skipStall = &c.StallLSQ
		case op.Class == ClassFP && len(c.fpQ) >= c.cfg.FPIQ,
			(op.Class == ClassLoad || op.Class == ClassStore) && len(c.memQ) >= c.cfg.MemIQ,
			op.Class != ClassFP && op.Class != ClassLoad && op.Class != ClassStore && len(c.intQ) >= c.cfg.IntIQ:
			c.skipStall = &c.StallIQFull
		default:
			return 0, false // the head would dispatch
		}
	}

	// Fetch.
	if !c.streamDone {
		if c.fetchBlocked {
			c.skipFetchBlocked = true // resolves when the branch issues
		} else if now < c.fetchResumeAt {
			c.skipFetchBlocked = true
			if c.fetchResumeAt < wake {
				wake = c.fetchResumeAt
			}
		} else if c.decq.Len() < c.cfg.DecodeQueue {
			return 0, false // would fetch
		}
	}

	// Issue queues: the expensive scan last. An op is issuable at
	// max(dispatched+1, producers' doneAt); in-flight producers mean an
	// external wake (the response drain is an active cycle).
	for _, q := range [3][]uint64{c.memQ, c.intQ, c.fpQ} {
		for _, seq := range q {
			e := c.robAt(seq)
			t := e.dispatched + 1
			external := false
			for _, d := range [2]int32{e.op.Dep1, e.op.Dep2} {
				if d <= 0 || uint64(d) > seq {
					continue
				}
				p := seq - uint64(d)
				if p < c.headSeq {
					continue // producer already committed
				}
				pe := c.robAt(p)
				if !pe.done {
					external = true // waiting on an in-flight load
					break
				}
				if pe.doneAt > t {
					t = pe.doneAt
				}
			}
			if external {
				continue
			}
			if t <= now {
				// Ready now: everything but a load blocked on a full
				// memory port (and with no forwarding hit) executes.
				if e.op.Class != ClassLoad || c.storeForward(e.op.Addr) || c.port.Down.CanPush() {
					return 0, false
				}
				continue
			}
			if t < wake {
				wake = t
			}
		}
	}
	return wake, true
}
