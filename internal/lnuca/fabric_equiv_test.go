package lnuca

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// equivDriver is the CPU side of the lockstep comparison. It draws a
// traffic mode every few hundred cycles: dense reads over the footprint
// plantBlocks put into the tiles (a search a cycle, hits on every level,
// a fill and an r-tile eviction per hit, so Replacement competes with
// Search for the tiles and backs up into the r-tile); a hot set of lines
// one r-tile set apart (stride 8 KB on the 32 KB 4-way r-tile) that
// thrashes one set of the r-tile and of every tile behind it; store
// bursts with cold reads (dirty blocks, next-level misses, exit
// writebacks); and idle gaps long enough for the machine to go quiet.
// Its draws depend only on its seed and on when the fabric frees the
// port, so two fabrics that behave alike see identical traffic. Like
// slowL3 it is wired, so a gated kernel can put the machine to sleep,
// and answers NextEvent from its own state.
type equivDriver struct {
	port      *mem.Port
	rng       *sim.Rand
	footprint int // bytes of tile-resident addresses
	mode      int
	density   float64 // chance of issuing on a cycle of this mode
	modeUntil sim.Cycle
	nextAt    sim.Cycle
	burst     int      // stores left in the current burst
	addr      mem.Addr // next burst address
	id        uint64
	got       []mem.Resp
}

const (
	modeResident = iota
	modeHotSet
	modeStores
	modeIdle
	numModes
)

func (d *equivDriver) Name() string { return "driver" }

func (d *equivDriver) Eval(k *sim.Kernel) {
	now := k.Cycle()
	for {
		r, ok := d.port.Up.Pop()
		if !ok {
			break
		}
		d.got = append(d.got, r)
	}
	if now < d.nextAt {
		return
	}
	if now >= d.modeUntil {
		d.mode = d.rng.Intn(numModes)
		d.density = []float64{0.15, 0.4, 1}[d.rng.Intn(3)]
		d.modeUntil = now + 100 + sim.Cycle(d.rng.Intn(300))
		if d.mode == modeIdle {
			d.nextAt = d.modeUntil
			return
		}
	}
	// Up to the r-tile's two ports a cycle.
	for n := 0; n < 2 && d.port.Down.CanPush() && d.rng.Bool(d.density); n++ {
		d.id++
		req := mem.Req{ID: d.id, Kind: mem.Read, Issued: now}
		switch {
		case d.burst > 0:
			d.burst--
			req.Kind, req.Addr = mem.Write, d.addr
			d.addr += 0x20
		case d.mode == modeResident:
			req.Addr = mem.Addr(d.rng.Intn(d.footprint)&^(8<<10-1) + d.rng.Intn(plantedLines)<<5)
		case d.mode == modeHotSet:
			// 24 lines for the r-tile's 4 ways and a tile's 2.
			req.Addr = mem.Addr(0x20 + d.rng.Intn(24)*0x2000)
			if d.rng.Bool(0.3) {
				req.Kind = mem.Write
			}
		case d.rng.Bool(0.2):
			d.burst = 2 + d.rng.Intn(10)
			d.addr = coldBase + mem.Addr(d.rng.Intn(1<<16))&^0x1F
			req.Kind, req.Addr = mem.Write, d.addr
			d.addr += 0x20
		default:
			req.Addr = coldBase + mem.Addr(d.rng.Intn(1<<16))&^0x1F
		}
		d.port.Down.Push(req)
	}
}

func (d *equivDriver) Commit(k *sim.Kernel) { d.port.Down.Tick() }

func (d *equivDriver) Wire(w sim.Waker) { d.port.WireAbove(w) }

func (d *equivDriver) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	switch {
	case d.port.Up.Len() > 0:
		return 0, false
	case now < d.nextAt:
		return d.nextAt, true
	case now >= d.modeUntil, d.port.Down.CanPush():
		return 0, false
	}
	// Port full: the fabric's pop is the wake, or the switch to the next
	// mode, which draws whether or not the port has room.
	return d.modeUntil, true
}

func (d *equivDriver) SkipTo(now, target sim.Cycle) {}

// coldBase starts the addresses no tile holds at the start; plantBlocks
// fills the r-tile from the far end of them.
const coldBase mem.Addr = 1 << 24

// plantedLines is how many blocks plantBlocks puts into each tile.
const plantedLines = 24

// plantBlocks puts the first plantedLines blocks of its own 8 KB of the
// footprint into every tile, fills the r-tile sets those blocks map to
// with blocks nothing reads (so their fills evict from the first), and
// returns the footprint in bytes.
func plantBlocks(f *Fabric) int {
	for j := 0; j < plantedLines; j++ {
		for w := 0; w < f.cfg.RTileBank.Ways; w++ {
			f.rtile.Fill(2*coldBase+mem.Addr(w<<13+j<<5), (j+w)%3 == 0)
		}
		for ti := range f.tiles {
			f.TileBank(ti).Fill(mem.Addr(ti<<13+j<<5), false)
		}
	}
	return len(f.tiles) << 13
}

// slowL3 is a next level that accepts one request every `every` cycles
// and answers reads `delay` cycles later, behind a two-entry port: the
// fabric's write buffer fills, dirty exit-corner victims wait, the
// Replacement network backs up into the r-tile's victim links, and the
// Transport network backs up behind the r-tile — the conditions for
// StallNoVictimSlot and for contention-marked restarts.
type slowL3 struct {
	port     *mem.Port
	delay    sim.Cycle
	every    sim.Cycle
	acceptAt sim.Cycle
	pending  sim.Queue[equivFill]
}

type equivFill struct {
	resp mem.Resp
	at   sim.Cycle
}

func (l *slowL3) Name() string { return "l3" }

func (l *slowL3) Eval(k *sim.Kernel) {
	now := k.Cycle()
	if now >= l.acceptAt {
		if req, ok := l.port.Down.Pop(); ok {
			l.acceptAt = now + l.every
			if req.Kind == mem.Read {
				l.pending.Push(equivFill{mem.Resp{ID: req.ID, Addr: req.Addr}, now + l.delay})
			}
		}
	}
	for l.pending.Len() > 0 && l.pending.Front().at <= now && l.port.Up.CanPush() {
		p, _ := l.pending.Pop()
		l.port.Up.Push(p.resp)
	}
}

func (l *slowL3) Commit(k *sim.Kernel) { l.port.Up.Tick() }

func (l *slowL3) Wire(w sim.Waker) { l.port.WireBelow(w) }

func (l *slowL3) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	wake := sim.Never
	if l.port.Down.Len() > 0 {
		if now >= l.acceptAt {
			return 0, false
		}
		wake = l.acceptAt
	}
	if l.pending.Len() > 0 {
		switch at := l.pending.Front().at; {
		case at > now:
			if at < wake {
				wake = at
			}
		case l.port.Up.CanPush():
			return 0, false
		}
	}
	return wake, true
}

func (l *slowL3) SkipTo(now, target sim.Cycle) {}

// equivSide is one machine of the pair: driver -> fabric -> slowL3 on
// its own kernel.
type equivSide struct {
	k   *sim.Kernel
	drv *equivDriver
	l3  *slowL3
	fab *Fabric
}

func newEquivSide(t *testing.T, cfg Config, seed uint64) *equivSide {
	t.Helper()
	up, down := mem.NewPort(4, 4), mem.NewPort(2, 2)
	s := &equivSide{
		k:   sim.NewKernel(),
		drv: &equivDriver{port: up, rng: sim.NewRand(seed)},
		l3:  &slowL3{port: down, delay: 30, every: 4},
	}
	var err error
	if s.fab, err = NewFabric(cfg, up, down, &mem.IDSource{}); err != nil {
		t.Fatal(err)
	}
	s.drv.footprint = plantBlocks(s.fab)
	s.k.MustRegister(s.drv)
	s.k.MustRegister(s.fab)
	s.k.MustRegister(s.l3)
	return s
}

// readRefused reports whether the request at the head of f's CPU port
// is a read the r-tile's MSHR file refuses.
func readRefused(f *Fabric) bool {
	req, ok := f.up.Down.Peek()
	if !ok || req.Kind != mem.Read {
		return false
	}
	line := req.Addr.Line(f.cfg.RTileBank.BlockBytes)
	if f.rtile.Probe(line) || f.wbuf.Contains(line) {
		return false
	}
	if m := f.mshr.Lookup(line); m != nil {
		return !f.mshr.CanMerge(m)
	}
	return f.mshr.Full()
}

// dlinkState is everything observable of a Transport link.
type dlinkState struct {
	visible, staged []transMsg
	canPush, used   bool
}

func stateOfD(l *dlink) dlinkState {
	all := l.ch.Snapshot()
	return dlinkState{all[:l.ch.Len()], all[l.ch.Len():], l.ch.CanPush(), l.used}
}

// compareFabrics fails on the first difference between the fabrics p
// and r.
func compareFabrics(t *testing.T, now sim.Cycle, p, r *Fabric) {
	t.Helper()
	if !reflect.DeepEqual(p.C, r.C) {
		t.Fatalf("cycle %d: counters differ:\n got %+v\nwant %+v", now, p.C, r.C)
	}
	if *p.rng != *r.rng {
		t.Fatalf("cycle %d: routing RNG state differs", now)
	}
	for i := range p.allD {
		if got, want := stateOfD(p.allD[i]), stateOfD(r.allD[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: dlink %d = %+v, twin %+v", now, i, got, want)
		}
	}
	for i, l := range p.allU {
		ref := r.allU[i]
		if !reflect.DeepEqual(l.items, ref.items) || !reflect.DeepEqual(l.staged, ref.staged) ||
			l.startLen != ref.startLen || l.used != ref.used {
			t.Fatalf("cycle %d: ulink %d = %+v, twin %+v", now, i, *l, *ref)
		}
	}
	for i, pt := range p.tiles {
		rt := r.tiles[i]
		if pt.ma != rt.ma || pt.rrIn != rt.rrIn {
			t.Fatalf("cycle %d: tile %d MA/rrIn differ: %+v vs %+v", now, i, *pt, *rt)
		}
		if now%16 == 0 && !reflect.DeepEqual(pt.bank.Lines(nil), rt.bank.Lines(nil)) {
			t.Fatalf("cycle %d: tile %d contents differ", now, i)
		}
	}
	if now%16 == 0 && !reflect.DeepEqual(p.rtile.Lines(nil), r.rtile.Lines(nil)) {
		t.Fatalf("cycle %d: r-tile contents differ", now)
	}
	type queues struct {
		search, gm, votes, resp, toL3, store, mshr, wbuf int
		retries                                          []retryEntry
	}
	q := func(f *Fabric) queues {
		return queues{f.searchQ.Len(), f.gmQ.Len(), len(f.votes), f.pendingResp.Len(), f.toL3Q.Len(),
			f.storeQ.Len(), f.mshr.Len(), f.wbuf.Len(), append([]retryEntry(nil), f.retryQ...)}
	}
	if got, want := q(p), q(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("cycle %d: queues = %+v, twin %+v", now, got, want)
	}
	for _, f := range []*Fabric{p, r} {
		if err := f.CheckExclusion(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
}

// checkActivitySets holds each set of the production fabric against
// what it summarises, between cycles (after Commit).
func checkActivitySets(t *testing.T, now sim.Cycle, f *Fabric) {
	t.Helper()
	for i, tl := range f.tiles {
		trans, repl := false, false
		for _, in := range tl.dIn {
			trans = trans || in.ch.Len() > 0
		}
		for _, in := range tl.uIn {
			repl = repl || in.len() > 0
		}
		if f.searching.Has(i) != tl.ma.Valid() || f.transport.Has(i) != trans || f.replacement.Has(i) != repl {
			t.Fatalf("cycle %d: tile %d in sets (searching %v, transport %v, replacement %v), state (%v, %v, %v)",
				now, i, f.searching.Has(i), f.transport.Has(i), f.replacement.Has(i), tl.ma.Valid(), trans, repl)
		}
	}
	if d, u := f.touchedD.Next(0), f.touchedU.Next(0); d >= 0 || u >= 0 {
		t.Fatalf("cycle %d: links still touched after Commit (dlink %d, ulink %d)", now, d, u)
	}
	// What Commit skipped must be what a tick would have left alone.
	for i, l := range f.allD {
		if s := stateOfD(l); s.used || len(s.staged) > 0 || s.canPush != (len(s.visible) < l.ch.Capacity()) {
			t.Fatalf("cycle %d: dlink %d not settled after Commit: %+v", now, i, s)
		}
	}
	for i, l := range f.allU {
		if l.used || len(l.staged) > 0 || l.startLen != len(l.items) {
			t.Fatalf("cycle %d: ulink %d not settled after Commit: %+v", now, i, *l)
		}
	}
}

// fabricWords flattens what compareFabrics compares of f — counters,
// routing RNG, links, tiles, queues; the arrays' contents every 16th
// cycle — for the digest. It leaves out rt_reads and rt_read_misses,
// which counted a refused read once per cycle when the digests were
// recorded.
func fabricWords(f *Fabric, now sim.Cycle) []uint64 {
	var w []uint64
	c := reflect.ValueOf(f.C)
	for i := 0; i < c.NumField(); i++ {
		if name := c.Type().Field(i).Name; name == "RTileReads" || name == "RTileReadMisses" {
			continue
		}
		if v := c.Field(i); v.Kind() == reflect.Uint64 {
			w = append(w, v.Uint())
		} else {
			w = append(w, v.Interface().([]uint64)...)
		}
	}
	rng := *f.rng
	w = append(w, rng.Uint64())
	for _, l := range f.allD {
		w = append(w, uint64(l.ch.Len()), bit(l.ch.CanPush()), bit(l.used))
		for _, m := range l.ch.Snapshot() {
			w = append(w, uint64(m.blk.line), bit(m.blk.dirty), m.hitCycle, uint64(m.minHops))
		}
	}
	for _, l := range f.allU {
		w = append(w, uint64(len(l.items)), uint64(len(l.staged)), uint64(l.startLen), bit(l.used))
		for _, b := range append(l.items, l.staged...) {
			w = append(w, uint64(b.line), bit(b.dirty))
		}
	}
	for _, t := range f.tiles {
		m, ok := t.ma.Get()
		w = append(w, bit(ok), uint64(m.line), m.reqID, bit(m.isRead), bit(m.marked), uint64(t.rrIn))
		if now%16 == 0 {
			for _, l := range t.bank.Lines(nil) {
				w = append(w, uint64(l))
			}
		}
	}
	if now%16 == 0 {
		for _, l := range f.rtile.Lines(nil) {
			w = append(w, uint64(l))
		}
	}
	w = append(w, uint64(f.searchQ.Len()), uint64(f.gmQ.Len()), uint64(len(f.votes)), uint64(f.pendingResp.Len()),
		uint64(f.toL3Q.Len()), uint64(f.storeQ.Len()), uint64(f.mshr.Len()), uint64(f.wbuf.Len()))
	for _, r := range f.retryQ {
		w = append(w, r.at, uint64(r.msg.line), r.msg.reqID)
	}
	return w
}

// fold mixes words into the running FNV-1a digest d.
func fold(d uint64, words ...uint64) uint64 {
	for _, w := range words {
		d = (d ^ w) * 0x100000001b3
	}
	return d
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fullScanDigests holds, per subtest of TestFabricMatchesFullScanReference,
// the digest of the gated fabric's fabricWords and the responses
// delivered after every Run. The first digests were recorded at commit
// e8e60a4, where a third machine ran the full-scan fabric — Eval's passes
// over every tile, Commit's ticks of every register and link — on the
// same traffic and matched the gated fabric on every cycle: each digest
// is the full scan's behaviour on its traffic. They were re-recorded at
// commit cb2a50f over the same fold less the counters the fabric no
// longer keeps and the two it now counts once, and at commit 3161d64
// over this fold, which keeps the state after each Run and no longer the
// kernel's polls, with Run budgets drawn from the phase RNG. They pin the
// order of the walks over the tile sets, which decides which tile draws
// which routing number and which the ungated twin, walking the same
// sets, cannot see. A digest changes only with a deliberate change to
// the fabric, recorded in CHANGES.md, and never to turn the test green.
var fullScanDigests = map[string]uint64{
	"LN2/deterministic=false": 0x28b8a2703bf47930,
	"LN2/deterministic=true":  0x8aad9a95e4faf90e,
	"LN4/deterministic=false": 0x7262dcdbe131e8ee,
	"LN4/deterministic=true":  0x75b146a398979,
	"LN6/deterministic=false": 0x2471550745a2502d,
	"LN6/deterministic=true":  0x8b6f04c4993f3ce5,
}

// TestFabricMatchesFullScanReference drives a fabric through gated and
// ungated phases, single cycles and multi-cycle Runs of seeded lengths,
// and a twin whose kernel is never gated with the same seeded traffic,
// and compares everything observable on every cycle both reach. Between
// Runs every activity set must equal its recount from the state, and at
// the end the digest must be the one the full-scan reference produced
// on this traffic.
func TestFabricMatchesFullScanReference(t *testing.T) {
	const cycles = sim.Cycle(4000) // the recorded digests are of this many
	// What the traffic exercised, summed over the matrix.
	seen := map[string]uint64{}
	for _, levels := range []int{2, 4, 6} { // LN6: 65 tiles, two BitSet words
		for _, det := range []bool{false, true} {
			name := fmt.Sprintf("LN%d/deterministic=%v", levels, det)
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig(levels)
				cfg.DeterministicRouting = det
				cfg.WriteBufEntries = 4
				// Few MSHRs: with sixteen, restarting searches can hold
				// every tile's Search-idle cycles and so the Replacement
				// network, which is what they wait for, for good.
				cfg.MSHREntries, cfg.MSHRSecondary = 2+levels/2, 2
				cfg.Seed = 17 + uint64(levels)
				seed := 1000*uint64(levels) + 7
				p, u := newEquivSide(t, cfg, seed), newEquivSide(t, cfg, seed)
				u.k.SetGating(false)
				if levels == 6 && len(p.fab.searching) < 2 {
					t.Fatalf("LN6 tile sets fit one word (%d tiles)", len(p.fab.tiles))
				}
				dig := uint64(0xcbf29ce484222325)
				phase := sim.NewRand(seed ^ 0x5ca1ab1e)
				for now, switchAt := sim.Cycle(0), sim.Cycle(0); now < cycles; now = p.k.Cycle() {
					if now >= switchAt {
						p.k.SetGating(phase.Bool(0.7))
						switchAt = now + 128
					}
					_, idle := p.fab.NextEvent(now)
					if idle {
						seen["idle polls"]++
						seen["idle polls with a refused read"] += bit(readRefused(p.fab))
					}
					mshrFull := p.fab.C.StallMSHRFull
					// One cycle, or a Run long enough to sleep and
					// fast-forward.
					budget := uint64(1)
					if phase.Bool(0.3) {
						budget = 2 + uint64(phase.Intn(100))
					}
					if !p.k.Gating() {
						seen["ungated cycles"] += budget
					}
					if a, b := p.k.Run(budget), u.k.Run(budget); a != b || p.k.Cycle() != u.k.Cycle() {
						t.Fatalf("cycle %d: kernels advanced %d and %d cycles", now, a, b)
					}
					if idle && p.k.Gating() {
						seen["skipped mshr-full stalls"] += p.fab.C.StallMSHRFull - mshrFull
					}
					a, b := len(p.drv.got), len(u.drv.got)
					if a != b || (a > 0 && p.drv.got[a-1] != u.drv.got[b-1]) {
						t.Fatalf("cycle %d: responses delivered differ (%d vs %d)", now, a, b)
					}
					if a > 0 {
						last := p.drv.got[a-1]
						dig = fold(dig, uint64(a), last.ID, uint64(last.Addr), last.Done)
					}
					compareFabrics(t, p.k.Cycle(), p.fab, u.fab)
					checkActivitySets(t, p.k.Cycle(), p.fab)
					dig = fold(dig, p.k.Cycle())
					dig = fold(dig, fabricWords(p.fab, p.k.Cycle())...)
				}
				if want := fullScanDigests[name]; dig != want {
					t.Errorf("digest %#x, recorded %#x: the fabric's cycles differ from the full scan's", dig, want)
				}
				for name, n := range map[string]uint64{
					"searches": p.fab.C.SearchesLaunched, "u-buffer hits": p.fab.C.UHitsTotal,
					"r-tile evictions": p.fab.C.RTileEvictions, "exit writebacks": p.fab.C.ExitWritebacks,
					"transport hops": p.fab.C.TransportHops, "marked restarts": p.fab.C.MarkedRestarts,
					"no-victim-slot stalls": p.fab.C.StallNoVictimSlot, "responses": uint64(len(p.drv.got)),
					"fast-forwards": p.k.FastForwards,
				} {
					seen[name] += n
				}
			})
		}
	}
	t.Logf("exercised: %v", seen)
	for _, name := range []string{
		"responses", "searches", "u-buffer hits", "r-tile evictions", "exit writebacks", "transport hops",
		"marked restarts", "no-victim-slot stalls", "idle polls", "fast-forwards", "ungated cycles",
		"skipped mshr-full stalls", "idle polls with a refused read",
	} {
		if seen[name] == 0 {
			t.Errorf("the traffic never produced %s", name)
		}
	}
}

// TestNextEventWakesForADueRetry: a fabric whose only work is a bounced
// search's retry, or a global miss waiting out its cycle, records at
// each Eval before the work is due that it is idle until that cycle, and
// acts on that cycle. The driven traffic above rarely leaves a retry as
// the only work, and a global miss matures on the cycle after the search
// that found it, which acted, so these wakes are checked on their own.
func TestNextEventWakesForADueRetry(t *testing.T) {
	line := mem.Addr(0x6000)
	msg := searchMsg{line: line, reqID: 1, isRead: true}
	for _, c := range []struct {
		name string
		due  func(f *Fabric)
		done func(f *Fabric) bool
	}{
		{"retry", func(f *Fabric) { f.retryQ = append(f.retryQ, retryEntry{at: 3, msg: msg}) },
			func(f *Fabric) bool { return len(f.retryQ) == 0 && f.searchQ.Len() == 1 }},
		{"global miss", func(f *Fabric) { f.gmQ.Push(gmEntry{readyAt: 3, msg: msg}) },
			func(f *Fabric) bool { return f.gmQ.Len() == 0 && f.C.GlobalMisses == 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newFabHarness(t, 2)
			h.f.mshr.Allocate(line, cache.Target{ReqID: 1, Addr: line, Kind: mem.Read})
			c.due(h.f)
			for h.k.Cycle() < 3 {
				h.k.Step()
				if wake, idle := h.f.NextEvent(h.k.Cycle()); !idle || wake != 3 {
					t.Fatalf("after the Eval at cycle %d: NextEvent = (%d, %v), want (3, true)", h.k.Cycle()-1, wake, idle)
				}
			}
			h.k.Step()
			if _, idle := h.f.NextEvent(h.k.Cycle()); idle || !c.done(h.f) {
				t.Fatalf("the Eval at cycle 3 did not act on the %s (idle %v)", c.name, idle)
			}
		})
	}
}
