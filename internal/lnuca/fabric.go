package lnuca

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes an L-NUCA fabric (Table I values by default).
type Config struct {
	Name   string
	Levels int
	// TileBank is the per-tile geometry (8KB, 2-way, 32B).
	TileBank cache.BankConfig
	// RTileBank is the root tile / L1 geometry (32KB, 4-way, 32B).
	RTileBank cache.BankConfig
	// RTilePorts bounds CPU requests accepted per cycle (Table I: 2).
	RTilePorts int
	// MSHREntries / MSHRSecondary size the r-tile miss file (16 / 4).
	MSHREntries   int
	MSHRSecondary int
	// WriteBufEntries sizes the fabric write buffer draining write misses
	// and dirty corner evictions to the next level (32).
	WriteBufEntries int
	// LinkBufEntries is the per-link buffer depth (Table I: 2 physical).
	LinkBufEntries int
	// DeterministicRouting replaces the paper's random output-link choice
	// with first-available (dimension-order-like) selection; an ablation
	// knob for the Section III.B claim that random routing reduces
	// contention.
	DeterministicRouting bool
	// Seed drives the distributed random routing.
	Seed uint64
}

// DefaultConfig returns the Table I L-NUCA configuration with the given
// number of levels.
func DefaultConfig(levels int) Config {
	return Config{
		Name:            fmt.Sprintf("LN%d", levels),
		Levels:          levels,
		TileBank:        cache.BankConfig{SizeBytes: 8 << 10, Ways: 2, BlockBytes: 32},
		RTileBank:       cache.BankConfig{SizeBytes: 32 << 10, Ways: 4, BlockBytes: 32},
		RTilePorts:      2,
		MSHREntries:     16,
		MSHRSecondary:   4,
		WriteBufEntries: 32,
		LinkBufEntries:  2,
		Seed:            1,
	}
}

// tile is the runtime state of one fabric site.
type tile struct {
	site *Site
	bank *cache.Bank
	ma   sim.Reg[searchMsg]

	dOut []*dlink // indexed like site.TransportOut
	dIn  []*dlink
	uOut []*ulink // indexed like site.ReplaceOut
	uIn  []*ulink

	// rrIn rotates the replacement input served first.
	rrIn int
}

// Counters aggregates the fabric-wide event counts used by the statistics
// and energy models.
type Counters struct {
	RTileReads, RTileReadHits, RTileReadMisses uint64
	RTileWrites, RTileWriteHits                uint64
	RTileFills, RTileEvictions                 uint64

	SearchesLaunched, SearchLookups, SearchTraversals uint64
	UCompares, UHitsTotal                             uint64

	TileHitsByLevel     []uint64 // indexed by level (0..Levels)
	TileReadHitsByLevel []uint64

	TransportDelivered    uint64
	TransportActualCycles uint64
	TransportMinCycles    uint64
	TransportHops         uint64
	ReplacementHops       uint64

	GlobalMisses, MarkedRestarts     uint64
	ExitWritebacks, ExitDrops        uint64
	L3Fills                          uint64
	StallMSHRFull, StallNoVictimSlot uint64
}

// storeQueueEntries bounds the r-tile store queue (Fabric.storeQ).
const storeQueueEntries = 8

type retryEntry struct {
	at  sim.Cycle
	msg searchMsg
}

type gmEntry struct {
	readyAt sim.Cycle
	msg     searchMsg
}

type voteRec struct {
	reqID  uint64
	msg    searchMsg
	count  int
	marked bool
}

// Fabric is the complete L-NUCA: the r-tile plus all tile levels and the
// three networks. It is one sim.Component; everything inside communicates
// through two-phase registers and buffers, so per-cycle behaviour is
// deterministic and matches the lockstep hardware of Section III.
type Fabric struct {
	cfg  Config
	geom *Geometry
	rng  *sim.Rand
	up   *mem.Port
	down *mem.Port
	ids  *mem.IDSource

	rtile *cache.Bank
	mshr  *cache.MSHRFile
	wbuf  *cache.WriteBuffer
	tiles []*tile

	rtDIn  []*dlink // transport links ending at the r-tile
	rtUOut []*ulink // r-tile victim links to the latency-3 tiles

	allD []*dlink
	allU []*ulink

	// Activity sets (DESIGN.md, "Activity inside a component"): a cycle
	// walks these, in ascending index, instead of every tile and link.
	// searching holds the tiles whose MA register is valid or was set
	// this cycle — after Commit, exactly the valid ones. transport and
	// replacement hold the tiles with a visible message on a Transport
	// input, a visible block on a Replacement input. touchedD and
	// touchedU index allD and allU (linkRef): the links sent on, popped
	// or removed from since their last tick.
	searching, transport, replacement sim.BitSet
	touchedD, touchedU                sim.BitSet

	searchQ     sim.Queue[searchMsg]
	launchedNow bool
	retryQ      []retryEntry
	gmQ         sim.Queue[gmEntry]
	votes       []voteRec
	lastLevelN  int

	pendingResp sim.Queue[mem.Resp]
	toL3Q       sim.Queue[mem.Req]
	// storeQ absorbs CPU stores like a conventional L1 write queue, so
	// loads never wait behind store bursts at the port.
	storeQ sim.Queue[mem.Req]

	// Quiescence bookkeeping: the stall increments of the last Eval,
	// which SkipTo applies per skipped cycle.
	skipNoVictim, skipMSHRFull uint64
	sim.Activity

	C Counters
}

// NewFabric builds the fabric between the CPU-facing port up and the
// next-cache-level port down.
func NewFabric(cfg Config, up, down *mem.Port, ids *mem.IDSource) (*Fabric, error) {
	geom, err := NewGeometry(cfg.Levels)
	if err != nil {
		return nil, err
	}
	if err := cfg.TileBank.Validate(); err != nil {
		return nil, fmt.Errorf("lnuca: tile bank: %w", err)
	}
	if err := cfg.RTileBank.Validate(); err != nil {
		return nil, fmt.Errorf("lnuca: r-tile bank: %w", err)
	}
	if cfg.TileBank.BlockBytes != cfg.RTileBank.BlockBytes {
		// Section II: "to simplify block migration, all the tiles share
		// the same block size".
		return nil, fmt.Errorf("lnuca: tile block %dB != r-tile block %dB",
			cfg.TileBank.BlockBytes, cfg.RTileBank.BlockBytes)
	}
	if cfg.RTilePorts <= 0 {
		cfg.RTilePorts = 1
	}
	f := &Fabric{
		cfg:   cfg,
		geom:  geom,
		rng:   sim.NewRand(cfg.Seed),
		up:    up,
		down:  down,
		ids:   ids,
		rtile: cache.NewBank(cfg.RTileBank),
		mshr:  cache.NewMSHRFile(cfg.MSHREntries, cfg.MSHRSecondary),
		wbuf:  cache.NewWriteBuffer(cfg.WriteBufEntries),
	}
	f.C.TileHitsByLevel = make([]uint64, cfg.Levels+1)
	f.C.TileReadHitsByLevel = make([]uint64, cfg.Levels+1)
	f.lastLevelN = RingSize(cfg.Levels)

	// Instantiate tiles, and size the activity sets once.
	f.tiles = make([]*tile, geom.NumTiles())
	nD, nU := 0, len(geom.RTileReplaceOut)
	for i := range geom.Sites {
		f.tiles[i] = &tile{site: &geom.Sites[i], bank: cache.NewBank(cfg.TileBank)}
		nD += len(geom.Sites[i].TransportOut)
		nU += len(geom.Sites[i].ReplaceOut)
	}
	f.searching = sim.NewBitSet(len(f.tiles))
	f.transport = sim.NewBitSet(len(f.tiles))
	f.replacement = sim.NewBitSet(len(f.tiles))
	f.touchedD = sim.NewBitSet(nD)
	f.touchedU = sim.NewBitSet(nU)
	// Wire transport links.
	for i := range geom.Sites {
		s := &geom.Sites[i]
		for _, dst := range s.TransportOut {
			l := newDLink(cfg.LinkBufEntries, linkRef{id: len(f.allD), dst: dst, touched: f.touchedD})
			f.allD = append(f.allD, l)
			f.tiles[i].dOut = append(f.tiles[i].dOut, l)
			if dst == RTileID {
				f.rtDIn = append(f.rtDIn, l)
			} else {
				f.tiles[dst].dIn = append(f.tiles[dst].dIn, l)
			}
		}
	}
	// Wire replacement links.
	for i := range geom.Sites {
		s := &geom.Sites[i]
		for _, dst := range s.ReplaceOut {
			l := newULink(cfg.LinkBufEntries, linkRef{id: len(f.allU), dst: dst, touched: f.touchedU})
			f.allU = append(f.allU, l)
			f.tiles[i].uOut = append(f.tiles[i].uOut, l)
			f.tiles[dst].uIn = append(f.tiles[dst].uIn, l)
		}
	}
	for _, dst := range geom.RTileReplaceOut {
		l := newULink(cfg.LinkBufEntries, linkRef{id: len(f.allU), dst: dst, touched: f.touchedU})
		f.allU = append(f.allU, l)
		f.rtUOut = append(f.rtUOut, l)
		f.tiles[dst].uIn = append(f.tiles[dst].uIn, l)
	}
	return f, nil
}

// Name implements sim.Component.
func (f *Fabric) Name() string { return f.cfg.Name }

// Geometry exposes the static structure.
func (f *Fabric) Geometry() *Geometry { return f.geom }

// Eval implements sim.Component.
func (f *Fabric) Eval(k *sim.Kernel) {
	now := k.Cycle()
	f.Begin()
	noVictim, mshrFull := f.C.StallNoVictimSlot, f.C.StallMSHRFull
	f.launchedNow = false
	f.votes = f.votes[:0]

	f.evalSearch(now)
	f.evalGlobalMiss(now)
	f.evalTransportForward(now)
	f.evalReplacement(now)
	f.evalRTile(now)
	f.evalRetries(now)
	f.drainOutputs(now)
	f.skipNoVictim, f.skipMSHRFull = f.C.StallNoVictimSlot-noVictim, f.C.StallMSHRFull-mshrFull
}

// Commit implements sim.Component. It ticks the MA registers in
// searching and the touched links only: for every other register (empty,
// nothing scheduled) and link (nothing staged, nothing popped, not used)
// the tick is the identity. A ticked link's destination tile re-derives
// its membership of the pending set from its inputs, which is the only
// time that membership can change.
func (f *Fabric) Commit(k *sim.Kernel) {
	for i := f.searching.Next(0); i >= 0; i = f.searching.Next(i + 1) {
		ma := &f.tiles[i].ma
		ma.Tick()
		if !ma.Valid() {
			f.searching.Clear(i)
		}
	}
	for i := f.touchedD.Next(0); i >= 0; i = f.touchedD.Next(i + 1) {
		f.touchedD.Clear(i)
		l := f.allD[i]
		l.tick()
		if l.dst != RTileID {
			f.refreshTransport(l.dst)
		}
	}
	for i := f.touchedU.Next(0); i >= 0; i = f.touchedU.Next(i + 1) {
		f.touchedU.Clear(i)
		l := f.allU[i]
		l.tick()
		f.refreshReplacement(l.dst)
	}
	f.up.Up.Tick()
	f.down.Down.Tick()
}

// Wire implements sim.Wired. The fabric's own links connect its tiles,
// so only its two ports carry input from outside.
func (f *Fabric) Wire(w sim.Waker) {
	f.up.WireBelow(w)
	f.down.WireAbove(w)
}

// refreshTransport enters tile id in the transport set when one of its
// Transport inputs holds a visible message, and removes it otherwise.
func (f *Fabric) refreshTransport(id int) {
	for _, in := range f.tiles[id].dIn {
		if in.ch.Len() > 0 {
			f.transport.Set(id)
			return
		}
	}
	f.transport.Clear(id)
}

// refreshReplacement is refreshTransport for the Replacement inputs.
func (f *Fabric) refreshReplacement(id int) {
	for _, in := range f.tiles[id].uIn {
		if in.len() > 0 {
			f.replacement.Set(id)
			return
		}
	}
	f.replacement.Clear(id)
}

// evalSearch runs the Search operation on every tile whose MA register
// holds a request: tag lookup in parallel with the U-buffer comparators,
// hit extraction into the Transport network, miss propagation to the leaf
// tiles, and miss voting at the last level (Sections II, III).
func (f *Fabric) evalSearch(now sim.Cycle) {
	for i := f.searching.Next(0); i >= 0; i = f.searching.Next(i + 1) {
		t := f.tiles[i]
		msg, ok := t.ma.Get()
		if !ok {
			continue // set by a parent this cycle; valid from the next
		}
		f.Acted()
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
				f.C.UHitsTotal++
			} else {
				dirty, _ := t.bank.Invalidate(line)
				blk = blockMsg{line: line, dirty: dirty}
			}
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

// propagate forwards a search message to the leaf tiles, or casts a
// last-level miss vote.
func (f *Fabric) propagate(t *tile, msg searchMsg) {
	if len(t.site.SearchChildren) == 0 {
		f.vote(msg)
		return
	}
	f.broadcast(t.site.SearchChildren, msg)
}

// broadcast writes msg into the MA registers of the given tiles.
func (f *Fabric) broadcast(children []int, msg searchMsg) {
	for _, c := range children {
		f.tiles[c].ma.Set(msg)
		f.searching.Set(c)
		f.C.SearchTraversals++
	}
}

// vote records one last-level miss report; when every last-level tile has
// reported, the global miss is determined (segmented miss-line).
func (f *Fabric) vote(msg searchMsg) {
	for i := range f.votes {
		if f.votes[i].reqID == msg.reqID {
			f.votes[i].count++
			f.votes[i].marked = f.votes[i].marked || msg.marked
			return
		}
	}
	//lnuca:allow(hotalloc) votes reach a per-search high-water mark, then reuse capacity
	f.votes = append(f.votes, voteRec{reqID: msg.reqID, msg: msg, count: 1, marked: msg.marked})
}

// evalGlobalMiss turns complete miss votes into next-level fetches (one
// cycle after the last-level search, Section III.A) or into search
// restarts for contention-marked requests.
func (f *Fabric) evalGlobalMiss(now sim.Cycle) {
	for _, v := range f.votes {
		if v.count < f.lastLevelN {
			continue // a hit somewhere pruned part of the tree
		}
		if v.marked {
			// Bounce back to the r-tile: restart the search after the
			// return trip.
			//lnuca:allow(hotalloc) retryQ grows to an in-flight high-water mark, then reuses
			f.retryQ = append(f.retryQ, retryEntry{at: now + 2, msg: searchMsg{
				line: v.msg.line, reqID: v.msg.reqID, isRead: v.msg.isRead,
			}})
			continue
		}
		f.gmQ.Push(gmEntry{readyAt: now + 1, msg: v.msg})
	}
	f.votes = f.votes[:0]

	// Mature global misses: decide fetch vs forwarded write miss.
	for f.gmQ.Len() > 0 && f.gmQ.Front().readyAt <= now {
		f.Acted()
		g, _ := f.gmQ.Pop()
		f.C.GlobalMisses++
		m := f.mshr.Lookup(g.msg.line)
		if m == nil {
			continue // already satisfied (stale retry)
		}
		readTargets := false
		for _, tg := range m.Targets {
			if tg.Kind == mem.Read {
				readTargets = true
			}
		}
		if !readTargets {
			// Pure write miss: forward to the next level through the
			// write buffer (Fig. 2(c): "write misses to L3 cache").
			if f.wbuf.Add(g.msg.line, mem.Write) {
				f.mshr.Free(g.msg.line)
			} else {
				// Retry when the write buffer has drained.
				f.gmQ.Push(gmEntry{readyAt: now + 1, msg: g.msg})
			}
			continue
		}
		f.toL3Q.Push(mem.Req{
			ID: f.ids.Next(), Addr: g.msg.line, Kind: mem.Read, Issued: now,
		})
	}
	if f.gmQ.Len() > 0 {
		f.WakeAt(f.gmQ.Front().readyAt)
	}
}

// pickDLink returns a random On output link, or nil when all are Off.
func (f *Fabric) pickDLink(links []*dlink) *dlink {
	n := 0
	var last *dlink
	for _, l := range links {
		if l.on() {
			n++
			last = l
		}
	}
	if n == 0 {
		return nil
	}
	if n == 1 || f.cfg.DeterministicRouting {
		if f.cfg.DeterministicRouting {
			for _, l := range links {
				if l.on() {
					return l
				}
			}
		}
		return last
	}
	pick := f.rng.Intn(n)
	for _, l := range links {
		if l.on() {
			if pick == 0 {
				return l
			}
			pick--
		}
	}
	return last
}

// pickULink returns a random On replacement link, or nil.
func (f *Fabric) pickULink(links []*ulink) *ulink {
	n := 0
	var last *ulink
	for _, l := range links {
		if l.on() {
			n++
			last = l
		}
	}
	if n == 0 {
		return nil
	}
	if n == 1 {
		return last
	}
	pick := f.rng.Intn(n)
	for _, l := range links {
		if l.on() {
			if pick == 0 {
				return l
			}
			pick--
		}
	}
	return last
}

// evalTransportForward moves messages already in the Transport network one
// hop closer to the r-tile (store-and-forward, one message per output link
// per cycle; hit injections from evalSearch have already claimed theirs).
func (f *Fabric) evalTransportForward(now sim.Cycle) {
	for i := f.transport.Next(0); i >= 0; i = f.transport.Next(i + 1) {
		t := f.tiles[i]
		for _, in := range t.dIn {
			m, ok := in.ch.Peek()
			if !ok {
				continue
			}
			out := f.pickDLink(t.dOut)
			if out == nil {
				continue // back-pressure: message waits in the buffer
			}
			f.Acted()
			in.pop()
			out.send(m)
			f.C.TransportHops++
		}
	}
}

// evalReplacement runs the domino eviction protocol on search-idle tiles:
// one array action per tile per cycle — either write the incoming block
// (when its set has room) or read out a victim into an On output channel
// to make room (Section III.C).
func (f *Fabric) evalReplacement(now sim.Cycle) {
	for i := f.replacement.Next(0); i >= 0; i = f.replacement.Next(i + 1) {
		t := f.tiles[i]
		if t.ma.Valid() {
			continue // Replacement only uses Search-idle cycles.
		}
		// Round-robin the input links so neither starves.
		n := len(t.uIn)
		for k := 0; k < n; k++ {
			in := t.uIn[(t.rrIn+k)%n]
			blk, ok := in.peek()
			if !ok {
				continue
			}
			if t.bank.HasSpace(blk.line) {
				in.pop()
				t.bank.Fill(blk.line, blk.dirty)
			} else if !f.evictFrom(t, blk.line) {
				continue // no room and no On output: wait
			}
			f.Acted()
			t.rrIn = (t.rrIn + k + 1) % n
			break // one array action per cycle
		}
	}
}

// evictFrom reads a victim out of the set line maps to and sends it one
// step outwards (or to the next cache level from an exit corner). It
// reports whether the eviction happened.
func (f *Fabric) evictFrom(t *tile, line mem.Addr) bool {
	if t.site.ExitsToNextLevel {
		v, ok := t.bank.VictimFor(line)
		if !ok {
			return true // space appeared; nothing to do
		}
		if v.Dirty {
			if f.wbuf.Full() {
				return false
			}
			t.bank.Invalidate(v.Addr)
			f.wbuf.Add(v.Addr, mem.Writeback)
			f.C.ExitWritebacks++
		} else {
			// Clean blocks are simply dropped: the next level is
			// inclusive of the L-NUCA (Section III.D).
			t.bank.Invalidate(v.Addr)
			f.C.ExitDrops++
		}
		f.C.ReplacementHops++
		return true
	}
	out := f.pickULink(t.uOut)
	if out == nil {
		return false
	}
	v, ok := t.bank.ExtractVictim(line)
	if !ok {
		return true
	}
	out.send(blockMsg{line: v.Addr, dirty: v.Dirty})
	f.C.ReplacementHops++
	return true
}

// evalRTile runs the root tile: consume arriving blocks (Transport and L3
// fills), accept CPU requests, and launch at most one search per cycle.
func (f *Fabric) evalRTile(now sim.Cycle) {
	// Consume Transport arrivals.
	for _, in := range f.rtDIn {
		m, ok := in.ch.Peek()
		if !ok {
			continue
		}
		if !f.fillRTile(now, m.blk) {
			f.C.StallNoVictimSlot++
			continue // back-pressure: no victim slot this cycle
		}
		f.Acted()
		in.pop()
		f.C.TransportDelivered++
		f.C.TransportActualCycles += uint64(now - m.hitCycle)
		f.C.TransportMinCycles += uint64(m.minHops)
	}

	// Consume L3 fills ("incoming blocks from the L3 ... directly sent to
	// the r-tile", Section II).
	for {
		resp, ok := f.down.Up.Peek()
		if !ok {
			break
		}
		if !f.fillRTile(now, blockMsg{line: resp.Addr.Line(f.cfg.RTileBank.BlockBytes)}) {
			f.C.StallNoVictimSlot++
			break
		}
		f.Acted()
		f.down.Up.Pop()
		f.C.L3Fills++
	}

	// Accept CPU requests, bounded by the r-tile ports.
	for n := 0; n < f.cfg.RTilePorts; n++ {
		req, ok := f.up.Down.Peek()
		if !ok {
			break
		}
		if !f.acceptCPU(now, req) {
			break
		}
		f.Acted()
		f.up.Down.Pop()
	}

	f.drainStores(now)

	// Launch one search per cycle.
	if !f.launchedNow && f.searchQ.Len() > 0 {
		f.Acted()
		msg, _ := f.searchQ.Pop()
		f.launchSearch(msg)
	}

	// Deliver responses generated this cycle (and any backlog).
	for f.pendingResp.Len() > 0 && f.up.Up.CanPush() {
		f.Acted()
		r, _ := f.pendingResp.Pop()
		r.Done = now
		f.up.Up.Push(r)
	}
}

// fillRTile inserts a block into the r-tile, evicting a victim into the
// Replacement network when the set is full. It wakes every request merged
// in the MSHR. It reports false when no victim slot is available.
func (f *Fabric) fillRTile(now sim.Cycle, blk blockMsg) bool {
	line := blk.line
	if !f.rtile.HasSpace(line) {
		out := f.pickULink(f.rtUOut)
		if out == nil {
			return false
		}
		v, ok := f.rtile.ExtractVictim(line)
		if ok {
			out.send(blockMsg{line: v.Addr, dirty: v.Dirty})
			f.C.RTileEvictions++
			f.C.ReplacementHops++
		}
	}
	dirty := blk.dirty
	targets := f.mshr.Free(line)
	for _, tg := range targets {
		if tg.Kind == mem.Write {
			dirty = true
		}
	}
	f.rtile.Fill(line, dirty)
	f.C.RTileFills++
	for _, tg := range targets {
		if tg.Kind == mem.Read {
			f.pendingResp.Push(mem.Resp{ID: tg.ReqID, Addr: line})
		}
	}
	return true
}

// acceptCPU handles one CPU request; false means stall (leave it queued).
// A read is counted when it is accepted, so a refused one counts once,
// on the cycle it gets in.
func (f *Fabric) acceptCPU(now sim.Cycle, req mem.Req) bool {
	line := req.Addr.Line(f.cfg.RTileBank.BlockBytes)
	switch req.Kind {
	case mem.Read:
		// A pending forwarded write serves the read from the buffer.
		hit := f.rtile.Access(line, false) || f.wbuf.Contains(line)
		if !hit && !f.missCPU(now, req, line, mem.Read) {
			return false
		}
		f.C.RTileReads++
		if !hit {
			f.C.RTileReadMisses++
			return true
		}
		f.C.RTileReadHits++
		f.pendingResp.Push(mem.Resp{ID: req.ID, Addr: line})
		return true
	case mem.Write, mem.Writeback:
		// Absorb into the store queue (the r-tile is "a conventional L1
		// cache extended with flow control", Section II); the array is
		// updated as the queue drains.
		if f.storeQ.Len() >= storeQueueEntries {
			return false
		}
		f.storeQ.Push(req)
		return true
	}
	return true
}

// drainStores applies one buffered store per cycle.
func (f *Fabric) drainStores(now sim.Cycle) {
	if f.storeQ.Len() == 0 {
		return
	}
	req := *f.storeQ.Front()
	line := req.Addr.Line(f.cfg.RTileBank.BlockBytes)
	// The L-NUCA ensemble is copy-back: the r-tile absorbs a store hit;
	// the dirty bit migrates outwards with the block.
	hit := f.rtile.Access(line, true)
	if !hit && !f.missCPU(now, req, line, mem.Write) {
		return // retried next cycle
	}
	f.Acted()
	f.C.RTileWrites++
	if hit {
		f.C.RTileWriteHits++
	}
	f.storeQ.Pop()
}

// missCPU merges or allocates an MSHR and queues the search launch.
func (f *Fabric) missCPU(now sim.Cycle, req mem.Req, line mem.Addr, kind mem.Kind) bool {
	tg := cache.Target{ReqID: req.ID, Addr: line, Kind: kind, Issued: req.Issued}
	if m := f.mshr.Lookup(line); m != nil {
		return f.mshr.Merge(m, tg)
	}
	if f.mshr.Full() {
		f.C.StallMSHRFull++
		return false
	}
	f.mshr.Allocate(line, tg)
	f.searchQ.Push(searchMsg{
		line:   line,
		reqID:  req.ID,
		isRead: kind == mem.Read,
	})
	return true
}

// launchSearch broadcasts a miss to the level-2 tiles.
func (f *Fabric) launchSearch(msg searchMsg) {
	f.launchedNow = true
	f.C.SearchesLaunched++
	f.broadcast(f.geom.RTileSearchChildren, msg)
}

// evalRetries re-launches contention-bounced searches that are due.
func (f *Fabric) evalRetries(now sim.Cycle) {
	kept := f.retryQ[:0]
	for _, r := range f.retryQ {
		switch {
		case r.at > now:
			f.WakeAt(r.at)
			//lnuca:allow(hotalloc) in-place filter into the slice's own backing array; no growth
			kept = append(kept, r)
		case f.mshr.Lookup(r.msg.line) == nil:
			// Already satisfied; drop the stale retry.
			f.Acted()
		default:
			f.Acted()
			f.searchQ.Push(r.msg)
		}
	}
	f.retryQ = kept
}

// drainOutputs pushes next-level fetches and buffered writes downstream.
func (f *Fabric) drainOutputs(now sim.Cycle) {
	for f.toL3Q.Len() > 0 && f.down.Down.CanPush() {
		f.Acted()
		r, _ := f.toL3Q.Pop()
		f.down.Down.Push(r)
	}
	// One buffered write per cycle, after demand fetches.
	if e, ok := f.wbuf.Peek(); ok && f.down.Down.CanPush() {
		f.Acted()
		f.wbuf.Pop()
		f.down.Down.Push(mem.Req{ID: f.ids.Next(), Addr: e.Line, Kind: e.Kind, Issued: now})
	}
}

// SkipTo implements sim.Quiescent.
func (f *Fabric) SkipTo(now, target sim.Cycle) {
	delta := target - now
	f.C.StallNoVictimSlot += f.skipNoVictim * delta
	f.C.StallMSHRFull += f.skipMSHRFull * delta
}

// MSHROccupancy returns live r-tile MSHR entries (tests).
func (f *Fabric) MSHROccupancy() int { return f.mshr.Len() }

// RTileBank exposes the root tile array (tests, warmup).
func (f *Fabric) RTileBank() *cache.Bank { return f.rtile }

// TileBank exposes one tile's array by site ID (tests).
func (f *Fabric) TileBank(id int) *cache.Bank { return f.tiles[id].bank }

// CheckExclusion verifies the content-exclusion invariant: every block
// address lives in at most one place (r-tile, one tile, or one in-transit
// buffer). Tests call it after every cycle.
func (f *Fabric) CheckExclusion() error {
	where := make(map[mem.Addr]string)
	place := func(a mem.Addr, loc string) error {
		if prev, dup := where[a]; dup {
			return fmt.Errorf("lnuca: block %#x in both %s and %s", uint64(a), prev, loc)
		}
		where[a] = loc
		return nil
	}
	for _, l := range f.rtile.Lines(nil) {
		if err := place(l, "r-tile"); err != nil {
			return err
		}
	}
	for i, t := range f.tiles {
		for _, l := range t.bank.Lines(nil) {
			if err := place(l, fmt.Sprintf("tile%d", i)); err != nil {
				return err
			}
		}
	}
	for i, l := range f.allU {
		for _, b := range l.items {
			if err := place(b.line, fmt.Sprintf("ulink%d", i)); err != nil {
				return err
			}
		}
		for _, b := range l.staged {
			if err := place(b.line, fmt.Sprintf("ulink%d(staged)", i)); err != nil {
				return err
			}
		}
	}
	for i, l := range f.allD {
		for _, m := range l.ch.Snapshot() {
			if err := place(m.blk.line, fmt.Sprintf("dlink%d", i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TotalBlocks counts blocks resident in the fabric arrays (tests).
func (f *Fabric) TotalBlocks() int {
	n := f.rtile.Occupancy()
	for _, t := range f.tiles {
		n += t.bank.Occupancy()
	}
	return n
}

// AvgTransportRatio returns the average-to-minimum transport latency
// ratio (Table III right columns).
func (f *Fabric) AvgTransportRatio() float64 {
	if f.C.TransportMinCycles == 0 {
		return 1
	}
	return float64(f.C.TransportActualCycles) / float64(f.C.TransportMinCycles)
}

// Collect adds the fabric counters to s under prefix.
func (f *Fabric) Collect(prefix string, s *stats.Set) {
	c := &f.C
	s.Add(prefix+".rt_reads", c.RTileReads)
	s.Add(prefix+".rt_read_hits", c.RTileReadHits)
	s.Add(prefix+".rt_read_misses", c.RTileReadMisses)
	s.Add(prefix+".rt_writes", c.RTileWrites)
	s.Add(prefix+".rt_write_hits", c.RTileWriteHits)
	s.Add(prefix+".rt_fills", c.RTileFills)
	s.Add(prefix+".rt_evictions", c.RTileEvictions)
	s.Add(prefix+".searches", c.SearchesLaunched)
	s.Add(prefix+".search_lookups", c.SearchLookups)
	s.Add(prefix+".search_traversals", c.SearchTraversals)
	s.Add(prefix+".u_compares", c.UCompares)
	s.Add(prefix+".u_hits", c.UHitsTotal)
	for lvl := 2; lvl <= f.cfg.Levels; lvl++ {
		s.Add(fmt.Sprintf("%s.hits_le%d", prefix, lvl), c.TileHitsByLevel[lvl])
		s.Add(fmt.Sprintf("%s.read_hits_le%d", prefix, lvl), c.TileReadHitsByLevel[lvl])
	}
	s.Add(prefix+".transport_delivered", c.TransportDelivered)
	s.Add(prefix+".transport_actual_cycles", c.TransportActualCycles)
	s.Add(prefix+".transport_min_cycles", c.TransportMinCycles)
	s.Add(prefix+".transport_hops", c.TransportHops)
	s.Add(prefix+".replacement_hops", c.ReplacementHops)
	s.Add(prefix+".global_misses", c.GlobalMisses)
	s.Add(prefix+".marked_restarts", c.MarkedRestarts)
	s.Add(prefix+".exit_writebacks", c.ExitWritebacks)
	s.Add(prefix+".exit_drops", c.ExitDrops)
	s.Add(prefix+".l3_fills", c.L3Fills)
	s.Add(prefix+".stall_mshr_full", c.StallMSHRFull)
	s.Add(prefix+".stall_no_victim_slot", c.StallNoVictimSlot)
	s.SetScalar(prefix+".transport_ratio", f.AvgTransportRatio())
}
