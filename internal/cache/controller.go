package cache

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// WritePolicy selects how stores interact with the array.
type WritePolicy uint8

const (
	// WriteThrough caches propagate every store downstream (the L1 /
	// r-tile policy in Table I) and do not allocate on store misses.
	WriteThrough WritePolicy = iota
	// CopyBack caches absorb stores and write dirty victims back on
	// eviction (L2, L3, L-NUCA tiles, D-NUCA banks in Table I).
	CopyBack
)

func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "copy-back"
}

// AccessMode selects tag/data array sequencing; it matters for the energy
// model only (serial access reads one way of data instead of all).
type AccessMode uint8

const (
	// Parallel reads tags and all data ways concurrently (fast, hungry).
	Parallel AccessMode = iota
	// Serial reads tags first, then only the hitting data way.
	Serial
)

func (m AccessMode) String() string {
	if m == Parallel {
		return "parallel"
	}
	return "serial"
}

// ControllerConfig parameterizes a generic cache level.
type ControllerConfig struct {
	Name             string
	Bank             BankConfig
	CompletionCycles int // load-to-use hit latency contribution
	InitiationCycles int // minimum gap between successive bank accesses
	Ports            int
	Policy           WritePolicy
	Mode             AccessMode
	MSHREntries      int
	MSHRSecondary    int
	WriteBufEntries  int
	// BusCycles models the request/data transfer on the link to the
	// upper level; it is added to every response's ready time.
	BusCycles int
	// TagMissCycles models miss determination (the serial-mode tag path
	// plus request forwarding) before the downstream fetch leaves.
	TagMissCycles int
}

// Controller is a timed cache level: it owns a Bank, an MSHR file and a
// write buffer, pops requests from its upstream port and fetches misses
// through its downstream port. It implements sim.Component.
//
// Responses are produced only for Read requests; Write and Writeback
// traffic is absorbed (coalesced, applied, and forwarded as required by
// the write policy), matching how the store path of the modeled hierarchy
// retires stores at the L1 write buffer.
type Controller struct {
	cfg  ControllerConfig
	bank *Bank
	mshr *MSHRFile
	wbuf *WriteBuffer
	up   *mem.Port // upper side: we pop up.Down and push up.Up
	down *mem.Port // lower side: we push down.Down and pop down.Up
	ids  *mem.IDSource

	portFreeAt []sim.Cycle
	pending    sim.Queue[timedResp] // matured hit/fill responses awaiting delivery
	fetchQ     sim.Queue[timedReq]  // downstream fetches awaiting miss determination/channel space

	// Counters (exported for the statistics and energy models).
	Reads, ReadHits, ReadMisses  uint64
	WritesApplied, WriteHits     uint64
	Fills, WritebacksOut         uint64
	BankAccesses                 uint64
	StallMSHRFull, StallWBufFull uint64

	// Quiescence bookkeeping: the stall increments of the last Eval,
	// which SkipTo applies per skipped cycle.
	skipMSHRFull, skipWBufFull uint64

	sim.Activity
}

type timedResp struct {
	resp  mem.Resp
	ready sim.Cycle
}

type timedReq struct {
	req   mem.Req
	ready sim.Cycle
}

// NewController wires a cache level between two ports. The ids source
// allocates IDs for the fetches this level originates.
func NewController(cfg ControllerConfig, up, down *mem.Port, ids *mem.IDSource) *Controller {
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	// CompletionCycles 0 is legal: Eval answers a hit the cycle it accepts
	// the read, so the request's and the response's port crossings make
	// the L1's 2-cycle completion on their own.
	if cfg.CompletionCycles < 0 {
		cfg.CompletionCycles = 0
	}
	if cfg.InitiationCycles < 1 {
		cfg.InitiationCycles = 1
	}
	return &Controller{
		cfg:        cfg,
		bank:       NewBank(cfg.Bank),
		mshr:       NewMSHRFile(cfg.MSHREntries, cfg.MSHRSecondary),
		wbuf:       NewWriteBuffer(cfg.WriteBufEntries),
		up:         up,
		down:       down,
		ids:        ids,
		portFreeAt: make([]sim.Cycle, cfg.Ports),
	}
}

// Name implements sim.Component.
func (c *Controller) Name() string { return c.cfg.Name }

// Bank exposes the underlying array (tests and warmup).
func (c *Controller) Bank() *Bank { return c.bank }

// MSHROccupancy returns the number of live MSHR entries.
func (c *Controller) MSHROccupancy() int { return c.mshr.Len() }

// takePort consumes a bank port for this cycle if one is free; if none
// is, it records the earliest release as a wake.
func (c *Controller) takePort(now sim.Cycle) bool {
	for i := range c.portFreeAt {
		if c.portFreeAt[i] <= now {
			c.portFreeAt[i] = now + sim.Cycle(c.cfg.InitiationCycles)
			c.BankAccesses++
			c.Acted()
			return true
		}
	}
	c.WakeAt(c.minPortFree())
	return false
}

// Eval implements sim.Component. It accepts before it delivers, as the
// L-NUCA's r-tile does: a response that matures this cycle, a hit with
// no completion cycles among them, leaves this cycle.
func (c *Controller) Eval(k *sim.Kernel) {
	now := k.Cycle()
	c.Begin()
	mshrFull, wbufFull := c.StallMSHRFull, c.StallWBufFull
	c.handleFills(now)
	c.issueFetches(now)
	c.acceptRequests(now)
	c.deliverResponses(now)
	c.drainWriteBuffer(now)
	c.skipMSHRFull, c.skipWBufFull = c.StallMSHRFull-mshrFull, c.StallWBufFull-wbufFull
}

// handleFills consumes downstream responses: fill the array, retire the
// MSHR, wake all merged requesters, and push dirty victims into the write
// buffer.
func (c *Controller) handleFills(now sim.Cycle) {
	for {
		resp, ok := c.down.Up.Peek()
		if !ok {
			break
		}
		// A fill needs a bank port, and write-buffer space when it evicts
		// a dirty victim. Check both before committing.
		if c.fillWaitsForWBuf(resp.Addr) {
			c.StallWBufFull++
			break
		}
		if !c.takePort(now) {
			break
		}
		c.down.Up.Pop()
		line := c.bank.Line(resp.Addr)
		targets := c.mshr.Free(line)
		dirty := false
		for _, t := range targets {
			if t.Kind == mem.Write {
				dirty = true
			}
		}
		victim, evicted := c.bank.Fill(line, dirty)
		c.Fills++
		if evicted && victim.Dirty && c.cfg.Policy == CopyBack {
			c.wbuf.Add(victim.Addr, mem.Writeback)
		}
		for _, t := range targets {
			if t.Kind == mem.Read {
				c.pending.Push(timedResp{
					resp:  mem.Resp{ID: t.ReqID, Addr: t.Addr, Done: now},
					ready: now + sim.Cycle(c.cfg.BusCycles),
				})
			}
		}
	}
}

// fillWaitsForWBuf: only a fill that evicts a dirty victim needs buffer space.
func (c *Controller) fillWaitsForWBuf(a mem.Addr) bool {
	if !c.wbuf.Full() {
		return false
	}
	v, evicts := c.bank.VictimFor(a)
	return evicts && v.Dirty
}

// issueFetches pushes queued MSHR fetches downstream once miss
// determination has elapsed and as channel space allows.
func (c *Controller) issueFetches(now sim.Cycle) {
	for c.fetchQ.Len() > 0 && c.fetchQ.Front().ready <= now && c.down.Down.CanPush() {
		c.Acted()
		r, _ := c.fetchQ.Pop()
		c.down.Down.Push(r.req)
	}
	if c.fetchQ.Len() > 0 && c.fetchQ.Front().ready > now {
		c.WakeAt(c.fetchQ.Front().ready)
	}
}

// deliverResponses sends matured responses upstream.
func (c *Controller) deliverResponses(now sim.Cycle) {
	for c.pending.Len() > 0 && c.pending.Front().ready <= now && c.up.Up.CanPush() {
		c.Acted()
		r, _ := c.pending.Pop()
		r.resp.Done = now
		c.up.Up.Push(r.resp)
	}
	if c.pending.Len() > 0 && c.pending.Front().ready > now {
		c.WakeAt(c.pending.Front().ready)
	}
}

// acceptRequests pops upstream demand requests, bounded by ports.
func (c *Controller) acceptRequests(now sim.Cycle) {
	for {
		req, ok := c.up.Down.Peek()
		if !ok {
			return
		}
		switch req.Kind {
		case mem.Read:
			if !c.acceptRead(now, req) {
				return
			}
		case mem.Write, mem.Writeback:
			// Stores and writebacks land in the write buffer; the array
			// is updated when the buffer drains.
			if !c.wbuf.Add(c.bank.Line(req.Addr), req.Kind) {
				c.StallWBufFull++
				return
			}
		}
		c.Acted()
		c.up.Down.Pop()
	}
}

// acceptRead processes one read; it reports false when the read must stall
// (and therefore block the request queue, preserving order).
func (c *Controller) acceptRead(now sim.Cycle, req mem.Req) bool {
	line := c.bank.Line(req.Addr)
	// Forward from a pending write: the block's data is newer here than
	// in the array or downstream.
	if c.wbuf.Contains(line) {
		c.Reads++
		c.ReadHits++
		c.pending.Push(timedResp{
			resp:  mem.Resp{ID: req.ID, Addr: req.Addr},
			ready: now + sim.Cycle(c.cfg.CompletionCycles+c.cfg.BusCycles),
		})
		return true
	}
	// A secondary miss merges without needing a bank port.
	if m := c.mshr.Lookup(line); m != nil {
		if !c.mshr.Merge(m, Target{ReqID: req.ID, Addr: req.Addr, Kind: mem.Read, Issued: req.Issued}) {
			return false
		}
		c.Reads++
		c.ReadMisses++
		return true
	}
	if c.mshr.Full() {
		c.StallMSHRFull++
		return false
	}
	if !c.takePort(now) {
		return false
	}
	c.Reads++
	if c.bank.Access(line, false) {
		c.ReadHits++
		c.pending.Push(timedResp{
			resp:  mem.Resp{ID: req.ID, Addr: req.Addr},
			ready: now + sim.Cycle(c.cfg.CompletionCycles+c.cfg.BusCycles),
		})
		return true
	}
	c.ReadMisses++
	c.mshr.Allocate(line, Target{ReqID: req.ID, Addr: req.Addr, Kind: mem.Read, Issued: req.Issued})
	c.queueFetch(line, req.Issued, now)
	return true
}

// queueFetch originates a downstream fetch for line, delayed by the miss
// determination time.
func (c *Controller) queueFetch(line mem.Addr, issued sim.Cycle, now sim.Cycle) {
	c.fetchQ.Push(timedReq{
		req: mem.Req{
			ID:     c.ids.Next(),
			Addr:   line,
			Kind:   mem.Read,
			Issued: issued,
		},
		ready: now + sim.Cycle(c.cfg.TagMissCycles),
	})
}

// drainWriteBuffer applies one buffered write per free port and cycle.
func (c *Controller) drainWriteBuffer(now sim.Cycle) {
	e, ok := c.wbuf.Peek()
	if !ok {
		return
	}
	line := e.Line
	switch {
	case c.mshr.Lookup(line) != nil:
		// The block is on its way; the fill will apply the write via the
		// MSHR target below.
		c.Acted()
		c.mshr.MergeWrite(c.mshr.Lookup(line), Target{ReqID: 0, Addr: line, Kind: mem.Write})
		c.wbuf.Pop()
		c.WritesApplied++
	case c.bank.Probe(line):
		if !c.takePort(now) {
			return
		}
		c.wbuf.Pop()
		// Only a copy-back cache keeps the block dirty; a write-through
		// cache updates the array and immediately forwards the store.
		c.bank.Access(line, c.cfg.Policy == CopyBack)
		c.WritesApplied++
		c.WriteHits++
		if c.cfg.Policy == WriteThrough {
			c.forwardDown(line, mem.Write)
		}
	default: // write miss
		switch {
		case e.Kind == mem.Writeback || c.cfg.Policy == WriteThrough:
			// Writeback bypass / write-through no-allocate: forward.
			if !c.down.Down.CanPush() {
				return
			}
			c.Acted()
			c.wbuf.Pop()
			c.forwardDown(line, e.Kind)
			c.WritesApplied++
		default:
			// Copy-back write-allocate: fetch the block, mark dirty on
			// fill.
			if c.mshr.Full() {
				c.StallMSHRFull++
				return
			}
			c.Acted()
			c.wbuf.Pop()
			c.mshr.Allocate(line, Target{ReqID: 0, Addr: line, Kind: mem.Write, Issued: now})
			c.queueFetch(line, now, now)
			c.WritesApplied++
		}
	}
}

// forwardDown pushes a write or writeback downstream (space was checked or
// is checked by the caller; when full, it queues on fetchQ semantics).
func (c *Controller) forwardDown(line mem.Addr, kind mem.Kind) {
	req := mem.Req{ID: c.ids.Next(), Addr: line, Kind: kind}
	if c.down.Down.CanPush() {
		c.down.Down.Push(req)
	} else {
		c.fetchQ.Push(timedReq{req: req})
	}
	if kind == mem.Writeback {
		c.WritebacksOut++
	}
}

// Commit implements sim.Component: publish what we pushed this cycle.
func (c *Controller) Commit(k *sim.Kernel) {
	c.up.Up.Tick()
	c.down.Down.Tick()
}

// Wire implements sim.Wired.
func (c *Controller) Wire(w sim.Waker) {
	c.up.WireBelow(w)
	c.down.WireAbove(w)
}

// minPortFree returns the earliest cycle any bank port frees.
func (c *Controller) minPortFree() sim.Cycle {
	min := c.portFreeAt[0]
	for _, t := range c.portFreeAt[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// SkipTo implements sim.Quiescent.
func (c *Controller) SkipTo(now, target sim.Cycle) {
	delta := uint64(target - now)
	c.StallMSHRFull += c.skipMSHRFull * delta
	c.StallWBufFull += c.skipWBufFull * delta
}

// Collect adds this level's counters to s under the given prefix.
func (c *Controller) Collect(prefix string, s *stats.Set) {
	s.Add(prefix+".reads", c.Reads)
	s.Add(prefix+".read_hits", c.ReadHits)
	s.Add(prefix+".read_misses", c.ReadMisses)
	s.Add(prefix+".writes", c.WritesApplied)
	s.Add(prefix+".write_hits", c.WriteHits)
	s.Add(prefix+".fills", c.Fills)
	s.Add(prefix+".writebacks_out", c.WritebacksOut)
	s.Add(prefix+".bank_accesses", c.BankAccesses)
	s.Add(prefix+".stall_mshr_full", c.StallMSHRFull)
	s.Add(prefix+".stall_wbuf_full", c.StallWBufFull)
	s.Add(prefix+".mshr_primary", c.mshr.Primary)
	s.Add(prefix+".mshr_secondary", c.mshr.Secondary)
}
