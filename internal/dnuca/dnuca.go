// Package dnuca implements the paper's D-NUCA baseline: an 8MB dynamic
// NUCA of 32 banks (4 rows x 8 columns, Table I) behind a wormhole mesh
// with virtual channels, modeled after the SS-performance configuration
// of Kim et al. [1]: simple (column) mapping, multicast search across the
// bank set, gradual one-hop promotion on hits, and tail insertion.
//
// The controller is a single injection point at the bottom edge of the
// mesh — exactly the property Section I of the paper criticizes and
// L-NUCA's three specialized networks are designed to avoid.
package dnuca

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes the D-NUCA (Table I: DN-4x8).
type Config struct {
	Name string
	// Rows x Cols banks; column = bank set ("8 sparse sets, 4 rows").
	Rows, Cols int
	// Bank geometry: 256KB, 2-way, 128B blocks.
	Bank cache.BankConfig
	// BankCompletion / BankInitiation: Table I's 3-cycle completion and
	// initiation. Only BankInitiation is modelled: a bank sends its hit
	// or nack the cycle the access starts and is busy for BankInitiation
	// cycles. BankCompletion is never read (ROADMAP item 2).
	BankCompletion, BankInitiation int
	// VCs / VCDepth: 4 virtual channels, 4-flit buffers.
	VCs, VCDepth int
	// FlitBytes: 32B flits on 256-bit links.
	FlitBytes int
	// MSHREntries / MSHRSecondary: 16 / 4.
	MSHREntries, MSHRSecondary int
	// WriteBufEntries buffers stores and writebacks at the controller.
	WriteBufEntries int
	// Promote enables gradual migration toward the controller on hits.
	Promote bool
	Seed    uint64
}

// DefaultConfig returns the Table I DN-4x8 configuration.
func DefaultConfig() Config {
	return Config{
		Name: "DN-4x8",
		Rows: 4, Cols: 8,
		Bank:           cache.BankConfig{SizeBytes: 256 << 10, Ways: 2, BlockBytes: 128},
		BankCompletion: 3, BankInitiation: 3,
		VCs: 4, VCDepth: 4,
		FlitBytes:       32,
		MSHREntries:     16,
		MSHRSecondary:   4,
		WriteBufEntries: 32,
		Promote:         true,
		Seed:            1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("dnuca: %dx%d banks invalid", c.Rows, c.Cols)
	}
	if err := c.Bank.Validate(); err != nil {
		return fmt.Errorf("dnuca: bank: %w", err)
	}
	if c.FlitBytes <= 0 || c.Bank.BlockBytes/c.FlitBytes+1 > maxMessageFlits {
		return fmt.Errorf("dnuca: a %dB block in %dB flits plus a head flit exceeds %d flits",
			c.Bank.BlockBytes, c.FlitBytes, maxMessageFlits)
	}
	return nil
}

// maxMessageFlits is the longest D-NUCA message: the paper's messages
// carry 1 to 5 flits.
const maxMessageFlits = 5

// msgKind discriminates D-NUCA network payloads.
type msgKind uint8

const (
	mSearch  msgKind = iota // controller -> bank: look up a line
	mHit                    // bank -> controller: data response
	mNack                   // bank -> controller: bank missed
	mFill                   // controller -> tail bank: insert block
	mPromote                // bank -> closer bank: migrate block
	mDemote                 // bank -> farther bank: displaced swap partner
	mWrite                  // controller -> bank: store update
	mWB                     // bank -> controller: dirty victim writeback
)

// payload is what a D-NUCA mesh message carries (noc.Message.Payload).
type payload struct {
	kind  msgKind
	line  mem.Addr
	dirty bool
	row   int // originating bank row (for stats/promotion)
}

// bank is one 256KB node with a busy-until occupancy model.
type bank struct {
	arr       *cache.Bank
	pos       noc.Coord
	busyUntil sim.Cycle
	jobs      sim.Queue[bankJob]
}

type bankJob struct {
	p       payload
	arrived sim.Cycle
}

// pendingSearch tracks a multicast in flight.
type pendingSearch struct {
	line  mem.Addr
	nacks int
	hit   bool
	write bool
}

// DNUCA is the banked cache component. Like the L-NUCA fabric it sits
// between an upstream port (the L1 or L-NUCA) and a downstream port (main
// memory).
type DNUCA struct {
	cfg  Config
	mesh *noc.Mesh[payload]
	rng  *sim.Rand
	up   *mem.Port
	down *mem.Port
	ids  *mem.IDSource

	banks []*bank // index = row*Cols + col; bank i sits at mesh node i+Cols
	// queued is the set of banks whose job queue is non-empty: runBanks
	// walks it instead of every bank.
	queued sim.BitSet
	ctrl   noc.Coord
	mshr   *cache.MSHRFile
	wbuf   *cache.WriteBuffer
	// searches are the multicasts in flight, found by line. Each belongs
	// to a live MSHR, which bounds them.
	searches []pendingSearch
	injectQ  []noc.Message[payload]
	memQ     sim.Queue[mem.Req]
	msgID    uint64

	pendingResp sim.Queue[mem.Resp]

	sim.Activity

	// Counters.
	Reads, Writes         uint64
	HitsByRow             []uint64
	Promotions, Demotions uint64
	Fills, Writebacks     uint64
	BankAccesses          uint64
	GlobalMisses          uint64
	SearchLatencySum      uint64
	SearchesResolved      uint64
}

// New builds the D-NUCA between up (processor side) and down (memory).
func New(cfg Config, up, down *mem.Port, ids *mem.IDSource) (*DNUCA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DNUCA{
		cfg: cfg,
		mesh: noc.NewMesh[payload](noc.MeshConfig{
			Width:  cfg.Cols,
			Height: cfg.Rows + 1, // row 0 hosts the controller
			VCs:    cfg.VCs, VCDepth: cfg.VCDepth,
		}),
		rng:  sim.NewRand(cfg.Seed),
		up:   up,
		down: down,
		ids:  ids,
		ctrl: noc.Coord{X: 0, Y: 0},
		mshr: cache.NewMSHRFile(cfg.MSHREntries, cfg.MSHRSecondary),
		wbuf: cache.NewWriteBuffer(cfg.WriteBufEntries),
	}
	d.searches = make([]pendingSearch, 0, d.mshr.Cap())
	d.banks = make([]*bank, cfg.Rows*cfg.Cols)
	d.queued = sim.NewBitSet(len(d.banks))
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			d.banks[r*cfg.Cols+c] = &bank{
				arr: cache.NewBank(cfg.Bank),
				pos: noc.Coord{X: c, Y: r + 1},
			}
		}
	}
	d.HitsByRow = make([]uint64, cfg.Rows)
	return d, nil
}

// Name implements sim.Component.
func (d *DNUCA) Name() string { return d.cfg.Name }

// Config returns the configuration the D-NUCA was built with.
func (d *DNUCA) Config() Config { return d.cfg }

// Column returns the bank set of a line: its block number's bits above a
// bank's set index. Taking it from the set-index bits themselves would
// leave each bank one set in Cols.
func (d *DNUCA) Column(line mem.Addr) int {
	return int(uint64(line) / uint64(d.cfg.Bank.BlockBytes) / uint64(d.cfg.Bank.NumSets()) % uint64(d.cfg.Cols))
}

func (d *DNUCA) bankAt(col, row int) *bank { return d.banks[row*d.cfg.Cols+col] }

// send queues a message for mesh injection.
func (d *DNUCA) send(now sim.Cycle, src, dst noc.Coord, flits int, p payload) {
	d.msgID++
	//lnuca:allow(hotalloc) injectQ grows to a high-water mark of messages awaiting injection, then reuses
	d.injectQ = append(d.injectQ, noc.Message[payload]{
		ID:      d.msgID,
		Src:     src,
		Dst:     dst,
		Flits:   flits,
		Payload: p,
	})
}

// dataFlits returns the flit count of a block-carrying message: the block
// plus a head flit, which Validate bounds by maxMessageFlits.
func (d *DNUCA) dataFlits() int {
	return d.cfg.Bank.BlockBytes/d.cfg.FlitBytes + 1
}

// Eval implements sim.Component.
func (d *DNUCA) Eval(k *sim.Kernel) {
	now := k.Cycle()
	d.Begin()
	// Messages waiting to inject or in the network move, or wait on each
	// other; a quiet mesh's Step does nothing (its rotation is a function
	// of the cycle).
	if len(d.injectQ) > 0 || !d.mesh.Quiet() {
		d.Acted()
	}
	// Drain injection queue into the mesh as staging allows.
	rest := d.injectQ[:0]
	for _, m := range d.injectQ {
		if !d.mesh.Inject(m, now) {
			//lnuca:allow(hotalloc) in-place filter into the slice's own backing array; no growth
			rest = append(rest, m)
		}
	}
	d.injectQ = rest

	d.mesh.Step(now)

	d.ejectController(now)
	d.ejectBanks(now)
	d.runBanks(now)
	d.acceptUpstream(now)
	d.consumeMemory(now)
	d.drainDown(now)
	d.deliverResponses(now)
}

// Commit implements sim.Component.
func (d *DNUCA) Commit(k *sim.Kernel) {
	d.up.Up.Tick()
	d.down.Down.Tick()
}

// Wire implements sim.Wired.
func (d *DNUCA) Wire(w sim.Waker) {
	d.up.WireBelow(w)
	d.down.WireAbove(w)
}

// ejectController handles messages arriving at the controller node.
func (d *DNUCA) ejectController(now sim.Cycle) {
	for {
		m, ok := d.mesh.EjectOne(d.ctrl)
		if !ok {
			break
		}
		p := m.Payload
		switch p.kind {
		case mHit:
			s := d.search(p.line)
			if s == nil || s.hit {
				break // duplicate or stale
			}
			s.hit = true
			d.HitsByRow[p.row]++
			d.SearchLatencySum += uint64(now) - uint64(m.Injected)
			d.SearchesResolved++
			d.finishLine(now, p.line)
		case mNack:
			s := d.search(p.line)
			if s == nil || s.hit {
				break
			}
			s.nacks++
			if s.nacks >= d.cfg.Rows {
				// Global miss: fetch from memory.
				d.GlobalMisses++
				d.endSearch(s)
				d.toMemory(now, p.line)
			}
		case mWB:
			// A tail-bank dirty victim leaves the cache entirely: it goes
			// straight to memory, not through the store path (which would
			// re-allocate it).
			d.memQ.Push(mem.Req{
				ID: d.ids.Next(), Addr: p.line, Kind: mem.Writeback, Issued: now,
			})
			d.Writebacks++
		}
	}
}

// finishLine retires the MSHR for line and queues responses.
func (d *DNUCA) finishLine(now sim.Cycle, line mem.Addr) {
	d.endSearch(d.search(line))
	for _, t := range d.mshr.Free(line) {
		if t.Kind == mem.Read {
			d.pendingResp.Push(mem.Resp{ID: t.ReqID, Addr: t.Addr})
		}
	}
}

// toMemory issues a block fetch downstream (via a small queue in fetchQ
// semantics: the drainDown step pushes it).
func (d *DNUCA) toMemory(now sim.Cycle, line mem.Addr) {
	d.memQ.Push(mem.Req{ID: d.ids.Next(), Addr: line, Kind: mem.Read, Issued: now})
}

// ejectBanks enqueues arriving work at each bank the mesh holds a
// delivery for. It runs after ejectController has emptied the
// controller's node, so every node left in the walk is a bank's.
func (d *DNUCA) ejectBanks(now sim.Cycle) {
	for n := d.mesh.NextDelivery(0); n >= 0; n = d.mesh.NextDelivery(n + 1) {
		i := n - d.cfg.Cols
		b := d.banks[i]
		for {
			m, ok := d.mesh.EjectOne(b.pos)
			if !ok {
				break
			}
			b.jobs.Push(bankJob{p: m.Payload, arrived: now})
		}
		d.queued.Set(i)
	}
}

// runBanks starts one job per free bank with queued work, in bank
// order, and emits its outcome.
func (d *DNUCA) runBanks(now sim.Cycle) {
	for i := d.queued.Next(0); i >= 0; i = d.queued.Next(i + 1) {
		b := d.banks[i]
		if b.busyUntil > now {
			d.WakeAt(b.busyUntil)
			continue
		}
		d.Acted()
		job, _ := b.jobs.Pop()
		if b.jobs.Len() == 0 {
			d.queued.Clear(i)
		}
		b.busyUntil = now + sim.Cycle(d.cfg.BankInitiation)
		d.BankAccesses++
		row := b.pos.Y - 1
		p := job.p
		switch p.kind {
		case mSearch:
			if b.arr.Access(p.line, false) {
				d.send(now, b.pos, d.ctrl, d.dataFlits(),
					payload{kind: mHit, line: p.line, row: row})
				d.maybePromote(now, b, p.line, row)
			} else {
				d.send(now, b.pos, d.ctrl, 1, payload{kind: mNack, line: p.line, row: row})
			}
		case mWrite:
			if b.arr.Access(p.line, true) {
				d.send(now, b.pos, d.ctrl, 1, payload{kind: mHit, line: p.line, row: row})
				d.maybePromote(now, b, p.line, row)
			} else {
				d.send(now, b.pos, d.ctrl, 1, payload{kind: mNack, line: p.line, row: row})
			}
		case mFill, mDemote, mPromote:
			if p.kind == mPromote {
				d.Promotions++
			}
			victim, evicted := b.arr.Fill(p.line, p.dirty)
			if evicted {
				d.evictFrom(now, b, victim, row, p.kind)
			}
		}
	}
}

// maybePromote migrates a hit block one bank closer to the controller,
// swapping with that bank's victim (gradual migration).
func (d *DNUCA) maybePromote(now sim.Cycle, b *bank, line mem.Addr, row int) {
	if !d.cfg.Promote || row == 0 {
		return
	}
	dirty, present := b.arr.Invalidate(line)
	if !present {
		return
	}
	closer := d.bankAt(b.pos.X, row-1)
	d.send(now, b.pos, closer.pos, d.dataFlits(),
		payload{kind: mPromote, line: line, dirty: dirty, row: row - 1})
}

// evictFrom routes a displaced victim: swap partners move one bank away
// from the controller; victims of the farthest row write back or drop.
func (d *DNUCA) evictFrom(now sim.Cycle, b *bank, v cache.Victim, row int, cause msgKind) {
	if cause == mPromote && row < d.cfg.Rows-1 {
		// Swap: the displaced block moves to where the promoted one was.
		farther := d.bankAt(b.pos.X, row+1)
		d.Demotions++
		d.send(now, b.pos, farther.pos, d.dataFlits(),
			payload{kind: mDemote, line: v.Addr, dirty: v.Dirty, row: row + 1})
		return
	}
	if row < d.cfg.Rows-1 {
		// Non-promotion eviction pushes outward too (keeps hot rows free).
		farther := d.bankAt(b.pos.X, row+1)
		d.send(now, b.pos, farther.pos, d.dataFlits(),
			payload{kind: mDemote, line: v.Addr, dirty: v.Dirty, row: row + 1})
		return
	}
	if v.Dirty {
		d.send(now, b.pos, d.ctrl, d.dataFlits(), payload{kind: mWB, line: v.Addr})
	}
	// Clean victims of the tail row vanish (memory has them).
}

// acceptUpstream pops L1 requests.
func (d *DNUCA) acceptUpstream(now sim.Cycle) {
	for {
		req, ok := d.up.Down.Peek()
		if !ok {
			return
		}
		line := req.Addr.Line(d.cfg.Bank.BlockBytes)
		switch req.Kind {
		case mem.Read:
			if !d.acceptRead(now, req, line) {
				return
			}
		case mem.Write, mem.Writeback:
			if !d.wbuf.Add(line, req.Kind) {
				return
			}
			d.Writes++
		}
		d.Acted()
		d.up.Down.Pop()
	}
}

// acceptRead takes one read, or reports false when the MSHR file
// refuses it. A read is counted when it is accepted, so a refused one
// counts once, on the cycle it gets in.
func (d *DNUCA) acceptRead(now sim.Cycle, req mem.Req, line mem.Addr) bool {
	if d.readBlocked(line) {
		return false
	}
	d.Reads++
	tg := cache.Target{ReqID: req.ID, Addr: req.Addr, Kind: mem.Read, Issued: req.Issued}
	switch m := d.mshr.Lookup(line); {
	case d.wbuf.Contains(line):
		d.pendingResp.Push(mem.Resp{ID: req.ID, Addr: req.Addr})
	case m != nil:
		d.mshr.Merge(m, tg)
	default:
		d.mshr.Allocate(line, tg)
		d.launchSearch(now, line, false)
	}
	return true
}

// readBlocked reports whether the MSHR file refuses a read of line: no
// pending write serves it, and its MSHR can take no more merges or it
// has none and the file is full.
func (d *DNUCA) readBlocked(line mem.Addr) bool {
	if d.wbuf.Contains(line) {
		return false
	}
	if m := d.mshr.Lookup(line); m != nil {
		return !d.mshr.CanMerge(m)
	}
	return d.mshr.Full()
}

// search returns the multicast in flight for line, or nil. The pointer
// is valid until the next launchSearch or endSearch.
func (d *DNUCA) search(line mem.Addr) *pendingSearch {
	for i := range d.searches {
		if d.searches[i].line == line {
			return &d.searches[i]
		}
	}
	return nil
}

// endSearch forgets s, an element of searches; nil is a no-op.
func (d *DNUCA) endSearch(s *pendingSearch) {
	if s != nil {
		last := len(d.searches) - 1
		*s = d.searches[last]
		d.searches = d.searches[:last]
	}
}

// launchSearch multicasts a lookup to every bank of the line's column.
func (d *DNUCA) launchSearch(now sim.Cycle, line mem.Addr, write bool) {
	col := d.Column(line)
	kind := mSearch
	if write {
		kind = mWrite
	}
	//lnuca:allow(hotalloc) appends into capacity fixed at the MSHR count; the caller just allocated this line's MSHR
	d.searches = append(d.searches, pendingSearch{line: line, write: write})
	for r := 0; r < d.cfg.Rows; r++ {
		b := d.bankAt(col, r)
		d.send(now, d.ctrl, b.pos, 1, payload{kind: kind, line: line})
	}
}

// consumeMemory handles fills coming back from DRAM: respond, then insert
// at the tail bank of the column.
func (d *DNUCA) consumeMemory(now sim.Cycle) {
	for {
		resp, ok := d.down.Up.Peek()
		if !ok {
			return
		}
		d.Acted()
		d.down.Up.Pop()
		line := resp.Addr.Line(d.cfg.Bank.BlockBytes)
		d.Fills++
		dirty := false
		for _, t := range d.mshr.Free(line) {
			switch t.Kind {
			case mem.Read:
				d.pendingResp.Push(mem.Resp{ID: t.ReqID, Addr: t.Addr})
			case mem.Write:
				dirty = true
			}
		}
		tail := d.bankAt(d.Column(line), d.cfg.Rows-1)
		d.send(now, d.ctrl, tail.pos, d.dataFlits(),
			payload{kind: mFill, line: line, dirty: dirty, row: d.cfg.Rows - 1})
	}
}

// drainDown pushes memory fetches and buffered writes downstream.
func (d *DNUCA) drainDown(now sim.Cycle) {
	for d.memQ.Len() > 0 && d.down.Down.CanPush() {
		d.Acted()
		r, _ := d.memQ.Pop()
		d.down.Down.Push(r)
	}
	// One buffered write per cycle: write hits update the bank in place;
	// misses write-allocate via the search path.
	if e, ok := d.wbuf.Peek(); ok {
		switch {
		case d.mshr.Lookup(e.Line) != nil:
			m := d.mshr.Lookup(e.Line)
			if d.mshr.Merge(m, cache.Target{ReqID: 0, Addr: e.Line, Kind: mem.Write}) {
				d.Acted()
				d.wbuf.Pop()
			}
		case d.search(e.Line) != nil:
			// A write search for this line is already out; wait.
		default:
			if !d.mshr.Full() {
				d.Acted()
				d.wbuf.Pop()
				d.mshr.Allocate(e.Line, cache.Target{ReqID: 0, Addr: e.Line, Kind: mem.Write})
				d.launchSearch(now, e.Line, true)
			}
		}
	}
}

// deliverResponses pushes matured responses upstream.
func (d *DNUCA) deliverResponses(now sim.Cycle) {
	for d.pendingResp.Len() > 0 && d.up.Up.CanPush() {
		d.Acted()
		r, _ := d.pendingResp.Pop()
		r.Done = now
		d.up.Up.Push(r)
	}
}

// Mesh exposes the network (stats/energy).
func (d *DNUCA) Mesh() *noc.Mesh[payload] { return d.mesh }

// CheckInvariants verifies the mesh's bookkeeping against the state it
// summarises (used by tests).
func (d *DNUCA) CheckInvariants() error { return d.mesh.CheckInvariants() }

// MSHROccupancy returns live MSHR entries (tests).
func (d *DNUCA) MSHROccupancy() int { return d.mshr.Len() }

// BankArray exposes bank (col,row) for tests.
func (d *DNUCA) BankArray(col, row int) *cache.Bank { return d.bankAt(col, row).arr }

// Collect adds counters to s under prefix.
func (d *DNUCA) Collect(prefix string, s *stats.Set) {
	s.Add(prefix+".reads", d.Reads)
	s.Add(prefix+".writes", d.Writes)
	s.Add(prefix+".global_misses", d.GlobalMisses)
	s.Add(prefix+".fills", d.Fills)
	s.Add(prefix+".writebacks", d.Writebacks)
	s.Add(prefix+".bank_accesses", d.BankAccesses)
	s.Add(prefix+".promotions", d.Promotions)
	s.Add(prefix+".demotions", d.Demotions)
	s.Add(prefix+".net_flit_hops", d.mesh.FlitHops)
	s.Add(prefix+".net_msgs", d.mesh.MsgsDelivered)
	for r := 0; r < d.cfg.Rows; r++ {
		s.Add(fmt.Sprintf("%s.hits_row%d", prefix, r), d.HitsByRow[r])
	}
	s.Add(prefix+".search_latency_sum", d.SearchLatencySum)
	s.Add(prefix+".searches_resolved", d.SearchesResolved)
}
