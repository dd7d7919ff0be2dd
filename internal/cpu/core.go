// Package cpu implements the trace-driven out-of-order core model that
// stands in for the paper's extended SimpleScalar/Alpha 3.0d (Section IV):
// a 4-wide machine with a 128-entry ROB, split issue windows, a 64-entry
// LSQ, a 48-entry store buffer, a combining branch predictor with 8-cycle
// redirect, a data TLB, and a non-blocking memory interface whose
// parallelism is bounded by the cache hierarchy's MSHRs.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Class discriminates micro-op types.
type Class uint8

const (
	// ClassInt is a single-cycle integer ALU op.
	ClassInt Class = iota
	// ClassFP is a floating-point op (multi-cycle).
	ClassFP
	// ClassLoad reads memory.
	ClassLoad
	// ClassStore writes memory.
	ClassStore
	// ClassBranch is a conditional branch.
	ClassBranch
)

func (c Class) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassFP:
		return "fp"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Op is one dynamic correct-path micro-operation. The fields run from
// widest to narrowest so an Op packs into 32 bytes (TestOpSizes).
type Op struct {
	// Addr is the effective address of loads and stores.
	Addr mem.Addr
	// PC identifies the static instruction (predictor indexing).
	PC uint64
	// Dep1/Dep2 are backward distances (in dynamic ops) to producers;
	// zero means no dependency.
	Dep1, Dep2 int32
	Class      Class
	// Taken is the resolved direction of branches.
	Taken bool
	// Lat overrides the execution latency when non-zero.
	Lat uint8
}

// Stream supplies the dynamic instruction trace.
type Stream interface {
	// Next returns the next correct-path op; ok=false ends simulation.
	Next() (op Op, ok bool)
}

// Config is the core configuration (Table I defaults).
type Config struct {
	FetchWidth         int // 4
	MaxTakenPerCycle   int // 2
	DecodeQueue        int
	ROBSize            int // 128
	LSQSize            int // 64
	StoreBufSize       int // 48
	IntIQ, FPIQ, MemIQ int // 32 / 24 / 16
	IntMemIssue        int // 4 (INT or MEM)
	FPIssue            int // 4
	CommitWidth        int // 4
	MispredictDelay    int // 8
	IntLatency         int // 1
	FPLatency          int // 4
	TLBEntries         int // data TLB entries
	TLBMissLatency     int // 30
	PageBytes          int
}

// DefaultConfig returns the Table I processor.
func DefaultConfig() Config {
	return Config{
		FetchWidth:       4,
		MaxTakenPerCycle: 2,
		DecodeQueue:      16,
		ROBSize:          128,
		LSQSize:          64,
		StoreBufSize:     48,
		IntIQ:            32,
		FPIQ:             24,
		MemIQ:            16,
		IntMemIssue:      4,
		FPIssue:          4,
		CommitWidth:      4,
		MispredictDelay:  8,
		IntLatency:       1,
		FPLatency:        4,
		TLBEntries:       64,
		TLBMissLatency:   30,
		PageBytes:        4 << 10,
	}
}

// decoded is a fetched op with its fetch-time prediction outcome.
type decoded struct {
	op         Op
	mispredict bool
}

// robEntry tracks one in-flight op: of the op, only what issue and
// commit read, so an entry is one 64-byte cache line (TestOpSizes).
type robEntry struct {
	addr       mem.Addr
	seq        uint64
	dispatched sim.Cycle
	doneAt     sim.Cycle

	// Wake-up state. readyAt is the first cycle the op may issue,
	// max(dispatched+1, doneAt of every done producer); it is final once
	// waitFor, the count of producers not yet done, reaches zero, which is
	// when the op enters its queue's candidate set. wakeHead heads the
	// list of ops waiting on this op's result, and wakeNext[k] continues
	// the list this op joined for its k-th dependency. A link is
	// 1 + 2*slot + k; zero ends a list.
	readyAt  sim.Cycle
	wakeHead int32
	wakeNext [2]int32

	tlbExtra   int32 // TLB-miss cycles a load's data arrives after its response
	class      Class
	lat        uint8 // the op's Lat
	issued     bool
	done       bool
	inFlight   bool // load waiting on memory
	mispredict bool
	waitFor    uint8
	queue      uint8
}

// The issue queues, in issue priority order.
const (
	qMem = iota
	qInt
	qFP
	numIQ
)

// queueOf returns the issue queue ops of class cl wait in.
func queueOf(cl Class) int {
	switch cl {
	case ClassFP:
		return qFP
	case ClassLoad, ClassStore:
		return qMem
	default:
		return qInt
	}
}

// issueQueue is one issue window: n ops dispatched and not yet issued
// (at most limit), of which ready holds the ROB slots of the candidates,
// the ops whose producers are all done, and cand counts them. Nothing
// polls the others: the producer that completes last moves an op into
// ready (Core.wake).
type issueQueue struct {
	n, limit int
	ready    sim.BitSet
	cand     int
}

// add makes the op in ROB slot a candidate.
func (q *issueQueue) add(slot int) {
	q.ready.Set(slot)
	q.cand++
}

// next returns the first candidate after slot i in ring order; the
// caller knows there is one.
func (q *issueQueue) next(i int) int {
	if i = q.ready.Next(i + 1); i < 0 {
		i = q.ready.Next(0)
	}
	return i
}

// Core is the out-of-order processor model. It talks to the first cache
// level through a mem.Port.
type Core struct {
	name   string
	cfg    Config
	stream Stream
	ahead  *Ahead // stream, when it is a run-ahead supply; nil otherwise
	port   *mem.Port
	ids    *mem.IDSource
	bpred  *BPred

	// Decode queue between fetch and dispatch.
	decq sim.Queue[decoded]

	// ROB is a ring of in-flight ops; seq of head entry = headSeq. The
	// ring is allocated at the next power of two >= cfg.ROBSize so a seq
	// maps to its slot with robMask; dispatch bounds the occupancy by
	// cfg.ROBSize, so the spare slots are never live.
	rob     []robEntry
	robMask uint64
	headSeq uint64
	tailSeq uint64 // next seq to allocate

	// Issue queues, indexed qMem, qInt, qFP.
	iq [numIQ]issueQueue

	// lsq tracks in-flight memory ops (loads and stores pre-commit).
	lsqCount int

	// Store buffer: committed stores draining to the cache.
	storeBuf sim.Queue[mem.Addr]

	// storeLines counts the live issued stores — issued in the ROB, or
	// committed into the store buffer — per forwarding line, hashed into
	// storeLineSlots. Zero proves storeForward has nothing to find; a
	// non-zero count (a match or a collision) falls through to the scan.
	storeLines [storeLineSlots]uint32

	// Fetch gating after a mispredicted branch.
	fetchResumeAt sim.Cycle
	fetchBlocked  bool

	// Load completion routing: request ID -> seq.
	loads loadTable

	// dTLB: direct-mapped over page numbers. With a power-of-two page
	// size and entry count (tlbPow2) the lookup is a shift and a mask.
	tlb       []uint64
	tlbPow2   bool
	pageShift uint

	streamDone bool
	maxInstr   uint64

	sim.Activity

	// Stats.
	Committed, Cycles                   uint64
	LoadsIssued, StoresCommitted        uint64
	Mispredicts, Branches               uint64
	TLBMisses                           uint64
	StallROBFull, StallIQFull, StallLSQ uint64
	StallSBFull, FetchBlockedCycles     uint64
	// LoadLatSum and LoadLatCount total the dispatch-to-complete
	// cycles of every load that went to memory, and count those loads.
	LoadLatSum, LoadLatCount uint64
}

// forwardLineBytes is the granularity at which a load matches an older
// store for forwarding.
const forwardLineBytes = 32

// storeLineSlots sizes the storeLines counting filter (a power of two).
const storeLineSlots = 256

// storeLineSlot hashes the forwarding line of a into the filter.
func storeLineSlot(a mem.Addr) int {
	return int(a/forwardLineBytes) & (storeLineSlots - 1)
}

// New builds a core reading ops from stream and accessing memory via port.
// maxInstr bounds the committed instruction count (0 = unbounded). A
// RunAhead stream is read by indexing its blocks.
func New(name string, cfg Config, stream Stream, port *mem.Port, ids *mem.IDSource, maxInstr uint64) *Core {
	ring := 1
	for ring < cfg.ROBSize {
		ring <<= 1
	}
	c := &Core{
		name:     name,
		cfg:      cfg,
		stream:   stream,
		port:     port,
		ids:      ids,
		bpred:    NewBPred(),
		rob:      make([]robEntry, ring),
		robMask:  uint64(ring - 1),
		loads:    newLoadTable(cfg.LSQSize),
		tlb:      make([]uint64, cfg.TLBEntries),
		maxInstr: maxInstr,
	}
	c.ahead, _ = stream.(*Ahead)
	for qi, limit := range [numIQ]int{qMem: cfg.MemIQ, qInt: cfg.IntIQ, qFP: cfg.FPIQ} {
		c.iq[qi] = issueQueue{limit: limit, ready: sim.NewBitSet(ring)}
	}
	for i := range c.tlb {
		c.tlb[i] = ^uint64(0)
	}
	if pow2(cfg.PageBytes) && pow2(cfg.TLBEntries) {
		c.tlbPow2 = true
		c.pageShift = uint(bits.TrailingZeros(uint(cfg.PageBytes)))
	}
	c.Track(&c.Cycles, &c.StallSBFull, &c.StallROBFull, &c.StallIQFull, &c.StallLSQ, &c.FetchBlockedCycles)
	return c
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Name implements sim.Component.
func (c *Core) Name() string { return c.name }

// robAt returns the ROB entry for seq.
func (c *Core) robAt(seq uint64) *robEntry {
	return &c.rob[seq&c.robMask]
}

// robOccupancy returns in-flight op count.
func (c *Core) robOccupancy() int { return int(c.tailSeq - c.headSeq) }

// Eval implements sim.Component.
func (c *Core) Eval(k *sim.Kernel) {
	now := k.Cycle()
	c.Begin()
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

// Commit implements sim.Component.
func (c *Core) Commit(k *sim.Kernel) {
	c.port.Down.Tick()
}

// Wire implements sim.Wired: the core sits above its memory port.
func (c *Core) Wire(w sim.Waker) { c.port.WireAbove(w) }

// drainResponses completes loads whose data arrived.
func (c *Core) drainResponses(now sim.Cycle) {
	for {
		resp, ok := c.port.Up.Pop()
		if !ok {
			return
		}
		c.Acted()
		seq, ok := c.loads.take(resp.ID)
		if !ok {
			continue // store ack or stale
		}
		e := c.robAt(seq)
		if e.seq == seq && e.inFlight {
			e.inFlight = false
			e.done = true
			e.doneAt = now + sim.Cycle(e.tlbExtra)
			c.wake(e)
			c.LoadLatSum += uint64(e.doneAt - e.dispatched)
			c.LoadLatCount++
		}
	}
}

// commit retires completed ops in order.
func (c *Core) commit(now sim.Cycle, k *sim.Kernel) {
	for n := 0; n < c.cfg.CommitWidth && c.headSeq < c.tailSeq; n++ {
		e := c.robAt(c.headSeq)
		if !e.done {
			return
		}
		if e.doneAt > now {
			c.WakeAt(e.doneAt)
			return
		}
		if e.class == ClassStore {
			if c.storeBuf.Len() >= c.cfg.StoreBufSize {
				c.StallSBFull++
				return
			}
			c.storeBuf.Push(e.addr)
			c.StoresCommitted++
			c.lsqCount--
		}
		if e.class == ClassLoad {
			c.lsqCount--
		}
		c.Acted()
		c.headSeq++
		c.Committed++
		if c.maxInstr > 0 && c.Committed >= c.maxInstr {
			k.Stop()
			return
		}
	}
}

// drainStoreBuffer sends one committed store per cycle to the cache.
func (c *Core) drainStoreBuffer(now sim.Cycle) {
	if c.storeBuf.Len() == 0 || !c.port.Down.CanPush() {
		return
	}
	c.Acted()
	addr, _ := c.storeBuf.Pop()
	c.storeLines[storeLineSlot(addr)]--
	c.port.Down.Push(mem.Req{ID: c.ids.Next(), Addr: addr, Kind: mem.Write, Issued: now})
}

// await makes the op e at seq wait for the producer d ops back, its k-th
// dependency. A producer that is done bounds readyAt; one that is not
// gets e on its wake list. A producer that has left the ROB completed
// before e was dispatched and constrains nothing.
func (c *Core) await(e *robEntry, seq uint64, d int32, k int32) {
	if d <= 0 || uint64(d) > seq {
		return
	}
	p := seq - uint64(d)
	if p < c.headSeq {
		return
	}
	pe := c.robAt(p)
	if pe.done {
		if pe.doneAt > e.readyAt {
			e.readyAt = pe.doneAt
		}
		return
	}
	e.waitFor++
	e.wakeNext[k] = pe.wakeHead
	pe.wakeHead = 1 + 2*int32(seq&c.robMask) + k
}

// wake hands the completion time of p, just done, to every op on its wake
// list; an op whose last producer this was becomes an issue candidate.
func (c *Core) wake(p *robEntry) {
	for l := p.wakeHead; l != 0; {
		slot, k := int(l-1)>>1, (l-1)&1
		e := &c.rob[slot]
		l = e.wakeNext[k]
		if p.doneAt > e.readyAt {
			e.readyAt = p.doneAt
		}
		if e.waitFor--; e.waitFor == 0 {
			c.iq[e.queue].add(slot)
		}
	}
	p.wakeHead = 0
}

// issueFrom issues up to width ready ops from q, oldest first, and returns
// the number of issue slots consumed. Slots in ring order from the head's
// are seqs in ascending order, so the walk visits the candidates in the
// order a scan of the whole queue would; left counts those it has yet to
// visit, among them any that wake adds mid-walk, which are younger than
// their producer and so still ahead.
func (c *Core) issueFrom(q *issueQueue, width int, now sim.Cycle) int {
	used := 0
	i := int(c.headSeq&c.robMask) - 1
	for left := q.cand; left > 0 && used < width; left-- {
		i = q.next(i)
		e := &c.rob[i]
		if e.readyAt > now {
			c.WakeAt(e.readyAt)
			continue
		}
		if !c.tryExecute(e, now) {
			continue
		}
		c.Acted()
		q.ready.Clear(i)
		q.cand--
		q.n--
		if e.done {
			had := q.cand
			c.wake(e)
			left += q.cand - had // the candidates wake added to this queue
		}
		used++
	}
	return used
}

// tryExecute starts execution of a ready op; false means structural stall
// (e.g. the memory port is full).
func (c *Core) tryExecute(e *robEntry, now sim.Cycle) bool {
	switch e.class {
	case ClassLoad:
		// Translate only a load that executes: one the full port refuses
		// must pay its TLB miss when it retries, not lose it.
		forward := c.storeForward(e.addr)
		if !forward && !c.port.Down.CanPush() {
			return false
		}
		extra := c.tlbLookup(e.addr)
		if forward {
			e.issued = true
			e.done = true
			e.doneAt = now + 2 + sim.Cycle(extra)
			c.LoadsIssued++
			return true
		}
		id := c.ids.Next()
		c.port.Down.Push(mem.Req{ID: id, Addr: e.addr, Kind: mem.Read, Issued: now})
		c.loads.put(id, e.seq)
		e.issued = true
		e.inFlight = true
		e.tlbExtra = int32(extra) // TLB walk delays data visibility
		c.LoadsIssued++
		return true
	case ClassStore:
		_ = c.tlbLookup(e.addr)
		c.storeLines[storeLineSlot(e.addr)]++
		e.issued = true
		e.done = true
		e.doneAt = now + 1
		return true
	case ClassFP:
		lat := c.cfg.FPLatency
		if e.lat > 0 {
			lat = int(e.lat)
		}
		e.issued = true
		e.done = true
		e.doneAt = now + sim.Cycle(lat)
		return true
	default: // Int, Branch
		lat := c.cfg.IntLatency
		if e.lat > 0 {
			lat = int(e.lat)
		}
		e.issued = true
		e.done = true
		e.doneAt = now + sim.Cycle(lat)
		if e.class == ClassBranch && e.mispredict {
			// Redirect: fetch resumes after the misprediction delay.
			c.fetchResumeAt = now + sim.Cycle(lat) + sim.Cycle(c.cfg.MispredictDelay)
			c.fetchBlocked = false
		}
		return true
	}
}

// issue runs both issue groups. INT and MEM share the 4 integer-side
// slots (Table I: "4(INT or MEM)"); memory ops get priority since loads
// gate dependents.
func (c *Core) issue(now sim.Cycle) {
	used := c.issueFrom(&c.iq[qMem], c.cfg.IntMemIssue, now)
	c.issueFrom(&c.iq[qInt], c.cfg.IntMemIssue-used, now)
	c.issueFrom(&c.iq[qFP], c.cfg.FPIssue, now)
}

// dispatch moves decoded ops into the ROB and issue queues, reading
// each from its decode-queue slot.
func (c *Core) dispatch(now sim.Cycle) {
	for c.decq.Len() > 0 {
		if c.robOccupancy() >= c.cfg.ROBSize {
			c.StallROBFull++
			return
		}
		d := c.decq.Front()
		qi := queueOf(d.op.Class)
		if qi == qMem && c.lsqCount >= c.cfg.LSQSize {
			c.StallLSQ++
			return
		}
		q := &c.iq[qi]
		if q.n >= q.limit {
			c.StallIQFull++
			return
		}
		c.Acted()
		seq := c.tailSeq
		c.tailSeq++
		e := c.robAt(seq)
		*e = robEntry{}
		e.addr, e.seq, e.dispatched, e.readyAt = d.op.Addr, seq, now, now+1
		e.class, e.lat, e.mispredict, e.queue = d.op.Class, d.op.Lat, d.mispredict, uint8(qi)
		c.await(e, seq, d.op.Dep1, 0)
		if d.op.Dep2 != d.op.Dep1 {
			c.await(e, seq, d.op.Dep2, 1)
		}
		q.n++
		if e.waitFor == 0 {
			q.add(int(seq & c.robMask))
		}
		if qi == qMem {
			c.lsqCount++
		}
		if d.op.Class == ClassBranch {
			c.Branches++
			if d.mispredict {
				c.Mispredicts++
			}
		}
		c.decq.Drop()
	}
}

// fetch brings up to FetchWidth ops per cycle into the decode queue,
// stopping at the configured taken-branch limit and at mispredicted
// branches (trace-driven redirect model).
func (c *Core) fetch(now sim.Cycle) {
	if c.streamDone {
		return
	}
	if c.fetchBlocked || now < c.fetchResumeAt {
		if !c.fetchBlocked {
			c.WakeAt(c.fetchResumeAt)
		}
		c.FetchBlockedCycles++
		return
	}
	taken := 0
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.decq.Len() >= c.cfg.DecodeQueue {
			return
		}
		c.Acted()
		var op Op
		ok := true
		if c.ahead != nil {
			op, _ = c.ahead.Next() // inlined: an index into the current block
		} else {
			op, ok = c.stream.Next()
		}
		if !ok {
			c.streamDone = true
			return
		}
		dec := decoded{op: op}
		if op.Class == ClassBranch {
			// Predict and train at fetch; a misprediction gates fetch
			// until the branch resolves (trace-driven redirect model).
			dec.mispredict = c.bpred.Update(op.PC, op.Taken)
			if dec.mispredict {
				c.fetchBlocked = true
			}
		}
		c.decq.Push(dec)
		if dec.mispredict {
			return
		}
		if op.Class == ClassBranch && op.Taken {
			taken++
			if taken >= c.cfg.MaxTakenPerCycle {
				return
			}
		}
	}
}

// storeForward reports whether an older store to the same line can
// forward (store buffer or in-flight LSQ stores).
func (c *Core) storeForward(a mem.Addr) bool {
	return c.storeLines[storeLineSlot(a)] != 0 && c.scanStores(a.Line(forwardLineBytes))
}

// scanStores is storeForward's exhaustive search for a live issued store
// to line.
func (c *Core) scanStores(line mem.Addr) bool {
	for i := 0; i < c.storeBuf.Len(); i++ {
		if c.storeBuf.At(i).Line(forwardLineBytes) == line {
			return true
		}
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.robAt(seq)
		if e.class == ClassStore && e.issued && e.addr.Line(forwardLineBytes) == line {
			return true
		}
	}
	return false
}

// tlbLookup returns the extra latency of a TLB miss (0 on hit) and
// installs the translation.
func (c *Core) tlbLookup(a mem.Addr) int {
	var page, idx uint64
	if c.tlbPow2 {
		page = uint64(a) >> c.pageShift
		idx = page & uint64(len(c.tlb)-1)
	} else {
		page = uint64(a) / uint64(c.cfg.PageBytes)
		idx = page % uint64(len(c.tlb))
	}
	if c.tlb[idx] == page {
		return 0
	}
	c.tlb[idx] = page
	c.TLBMisses++
	return c.cfg.TLBMissLatency
}

// MaxCommitPerCycle returns the commit width, the hard per-cycle bound
// on retirement (window-boundary clamping in the experiment harness).
func (c *Core) MaxCommitPerCycle() int { return c.cfg.CommitWidth }

// Done reports whether the committed-instruction budget is exhausted.
func (c *Core) Done() bool {
	return c.maxInstr > 0 && c.Committed >= c.maxInstr
}

// Collect adds core counters to s under prefix.
func (c *Core) Collect(prefix string, s *stats.Set) {
	s.Add(prefix+".committed", c.Committed)
	s.Add(prefix+".cycles", c.Cycles)
	s.Add(prefix+".loads", c.LoadsIssued)
	s.Add(prefix+".stores", c.StoresCommitted)
	s.Add(prefix+".branches", c.Branches)
	s.Add(prefix+".mispredicts", c.Mispredicts)
	s.Add(prefix+".tlb_misses", c.TLBMisses)
	s.Add(prefix+".stall_rob", c.StallROBFull)
	s.Add(prefix+".stall_iq", c.StallIQFull)
	s.Add(prefix+".stall_lsq", c.StallLSQ)
	s.Add(prefix+".stall_sb", c.StallSBFull)
	s.Add(prefix+".fetch_blocked", c.FetchBlockedCycles)
	s.Add(prefix+".load_latency_sum", c.LoadLatSum)
	s.Add(prefix+".load_latency_count", c.LoadLatCount)
}
