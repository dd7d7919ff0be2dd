package lnuca

import (
	"fmt"
	"reflect"
	"testing"

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
// port, so two equivalent fabrics see identical traffic.
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

func (d *equivDriver) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	switch {
	case d.port.Up.Len() > 0:
		return 0, false
	case now < d.nextAt:
		return d.nextAt, true
	case now >= d.modeUntil, d.port.Down.CanPush():
		return 0, false
	}
	return sim.Never, true // port full: the fabric's pop is the wake
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
// its own kernel. fab is the Fabric whose state is inspected; comp is
// what the kernel runs — fab itself, or the full-scan reference over it.
type equivSide struct {
	k    *sim.Kernel
	drv  *equivDriver
	l3   *slowL3
	fab  *Fabric
	comp sim.Quiescent
}

func newEquivSide(t *testing.T, cfg Config, seed uint64, reference bool) *equivSide {
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
	s.comp = s.fab
	if reference {
		s.comp = &refFabric{s.fab}
	}
	s.k.MustRegister(s.drv)
	s.k.MustRegister(s.comp)
	s.k.MustRegister(s.l3)
	return s
}

// allIdle polls the three components the way the kernel will and
// returns the earliest wake when every one is idle.
func (s *equivSide) allIdle(now sim.Cycle) (sim.Cycle, bool) {
	wake := sim.Never
	for _, q := range []sim.Quiescent{s.drv, s.comp, s.l3} {
		w, idle := q.NextEvent(now)
		if !idle {
			return 0, false
		}
		if w < wake {
			wake = w
		}
	}
	return wake, true
}

// skipCounters is the bookkeeping NextEvent leaves for SkipTo.
func skipCounters(f *Fabric) [4]uint64 {
	return [4]uint64{f.skipNoVictim, f.skipMSHRFull, f.skipMergeRejects, f.skipBlockedReads}
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

// compareFabrics fails on the first difference between the production
// fabric p and the fabric r the reference drives.
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
			t.Fatalf("cycle %d: dlink %d = %+v, reference %+v", now, i, got, want)
		}
	}
	for i, l := range p.allU {
		ref := r.allU[i]
		if !reflect.DeepEqual(l.items, ref.items) || !reflect.DeepEqual(l.staged, ref.staged) ||
			l.startLen != ref.startLen || l.used != ref.used {
			t.Fatalf("cycle %d: ulink %d = %+v, reference %+v", now, i, *l, *ref)
		}
	}
	for i, pt := range p.tiles {
		rt := r.tiles[i]
		if pt.ma != rt.ma || pt.rrIn != rt.rrIn || pt.Hits != rt.Hits || pt.UHits != rt.UHits {
			t.Fatalf("cycle %d: tile %d MA/rrIn/hits differ: %+v vs %+v", now, i, *pt, *rt)
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
		rejects                                          uint64
		retries                                          []retryEntry
	}
	q := func(f *Fabric) queues {
		return queues{f.searchQ.Len(), f.gmQ.Len(), len(f.votes), f.pendingResp.Len(), f.toL3Q.Len(),
			f.storeQ.Len(), f.mshr.Len(), f.wbuf.Len(), f.mshr.MergeRejects, append([]retryEntry(nil), f.retryQ...)}
	}
	if got, want := q(p), q(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("cycle %d: queues = %+v, reference %+v", now, got, want)
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

// TestFabricMatchesFullScanReference drives the activity-set fabric and
// the full-scan reference with the same seeded traffic — through gated
// and ungated phases, single cycles and multi-cycle fast-forwards — and
// compares everything observable on every cycle.
func TestFabricMatchesFullScanReference(t *testing.T) {
	cycles := sim.Cycle(4000)
	if testing.Short() {
		cycles = 1500
	}
	// What the traffic exercised, summed over the matrix.
	seen := map[string]uint64{}
	for _, levels := range []int{2, 4, 6} { // LN6: 65 tiles, two BitSet words
		for _, det := range []bool{false, true} {
			t.Run(fmt.Sprintf("LN%d/deterministic=%v", levels, det), func(t *testing.T) {
				cfg := DefaultConfig(levels)
				cfg.DeterministicRouting = det
				cfg.WriteBufEntries = 4
				// Few MSHRs: with sixteen, restarting searches can hold
				// every tile's Search-idle cycles and so the Replacement
				// network, which is what they wait for, for good.
				cfg.MSHREntries, cfg.MSHRSecondary = 2+levels/2, 2
				cfg.Seed = 17 + uint64(levels)
				seed := 1000*uint64(levels) + 7
				p, r := newEquivSide(t, cfg, seed, false), newEquivSide(t, cfg, seed, true)
				if levels == 6 && len(p.fab.searching) < 2 {
					t.Fatalf("LN6 tile sets fit one word (%d tiles)", len(p.fab.tiles))
				}
				phase := sim.NewRand(seed ^ 0x5ca1ab1e)
				for now := sim.Cycle(0); now < cycles; now = p.k.Cycle() {
					if now%128 == 0 {
						gated := phase.Bool(0.7)
						p.k.SetGating(gated)
						r.k.SetGating(gated)
					}
					pw, pi := p.comp.NextEvent(now)
					rw, ri := r.comp.NextEvent(now)
					if pw != rw || pi != ri || skipCounters(p.fab) != skipCounters(r.fab) {
						t.Fatalf("cycle %d: NextEvent = (%d, %v) skips %v, reference (%d, %v) skips %v",
							now, pw, pi, skipCounters(p.fab), rw, ri, skipCounters(r.fab))
					}
					if pi {
						seen["idle polls"]++
						seen["skipped mshr-full stalls"] += p.fab.skipMSHRFull
						seen["skipped blocked reads"] += p.fab.skipBlockedReads
					}
					// One cycle, or — when the whole machine is idle until
					// a known wake — one fast-forward over the gap.
					budget := uint64(1)
					if wake, idle := p.allIdle(now); idle && wake != sim.Never && p.k.Gating() {
						budget = wake - now
						seen["fast-forwards"]++
					} else if !p.k.Gating() {
						seen["ungated cycles"]++
					}
					if a, b := p.k.Run(budget), r.k.Run(budget); a != b || p.k.Cycle() != r.k.Cycle() {
						t.Fatalf("cycle %d: kernels advanced %d and %d cycles", now, a, b)
					}
					if a, b := len(p.drv.got), len(r.drv.got); a != b || (a > 0 && p.drv.got[a-1] != r.drv.got[b-1]) {
						t.Fatalf("cycle %d: responses delivered differ (%d vs %d)", now, a, b)
					}
					compareFabrics(t, p.k.Cycle(), p.fab, r.fab)
					checkActivitySets(t, p.k.Cycle(), p.fab)
				}
				for name, n := range map[string]uint64{
					"searches": p.fab.C.SearchesLaunched, "u-buffer hits": p.fab.C.UHitsTotal,
					"r-tile evictions": p.fab.C.RTileEvictions, "exit writebacks": p.fab.C.ExitWritebacks,
					"transport hops": p.fab.C.TransportHops, "marked restarts": p.fab.C.MarkedRestarts,
					"no-victim-slot stalls": p.fab.C.StallNoVictimSlot, "responses": uint64(len(p.drv.got)),
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
		"skipped mshr-full stalls", "skipped blocked reads",
	} {
		if seen[name] == 0 {
			t.Errorf("the traffic never produced %s", name)
		}
	}
}
