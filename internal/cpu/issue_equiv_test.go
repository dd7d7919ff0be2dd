package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// phasedStream is an endless seeded op stream that moves, every few
// hundred ops, between the dependency shapes the issue stage treats
// differently.
type phasedStream struct {
	rng      *sim.Rand
	mode     int
	left     int
	lastLoad int32 // ops since the previous load
	lines    [4]mem.Addr
}

const (
	modeChase  = iota // loads chained to the previous load, far apart
	modeFP            // FP chains with mixed latencies, Dep1 == Dep2
	modeStores        // store bursts, then loads of the same lines (forwarding)
	modeWide          // independent ops: full-width issue, slot sharing
	modeMixed         // everything, long dependency distances, branches
	streamModes
)

func (s *phasedStream) Next() (Op, bool) {
	if s.left == 0 {
		s.mode = s.rng.Intn(streamModes)
		s.left = 100 + s.rng.Intn(400)
		for i := range s.lines {
			s.lines[i] = mem.Addr(s.rng.Intn(1<<22)) &^ 31
		}
	}
	s.left--
	s.lastLoad++
	op := s.draw()
	if op.Class == ClassLoad {
		s.lastLoad = 0
	}
	return op, true
}

func (s *phasedStream) draw() Op {
	rng := s.rng
	far := func() mem.Addr { return mem.Addr(rng.Intn(1 << 24)) } // 4096 pages: TLB misses
	switch s.mode {
	case modeChase:
		if rng.Intn(3) == 0 {
			return Op{Class: ClassLoad, Addr: far(), Dep1: s.lastLoad}
		}
		return Op{Class: ClassInt, Dep1: s.lastLoad, Dep2: int32(rng.Intn(3))}
	case modeFP:
		d := int32(1 + rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			return Op{Class: ClassFP, Dep1: d, Dep2: d, Lat: uint8(1 + rng.Intn(12))}
		case 1:
			return Op{Class: ClassFP, Dep1: 1, Lat: 20} // backs the FP queue up
		default:
			return Op{Class: ClassFP, Dep1: d, Dep2: int32(rng.Intn(30))}
		}
	case modeStores:
		a := s.lines[rng.Intn(len(s.lines))] + mem.Addr(rng.Intn(32))
		if s.left%24 < 12 {
			return Op{Class: ClassStore, Addr: a, Dep1: int32(rng.Intn(3))}
		}
		return Op{Class: ClassLoad, Addr: a, Dep1: int32(rng.Intn(5))}
	case modeWide:
		switch rng.Intn(6) {
		case 0:
			return Op{Class: ClassLoad, Addr: s.lines[0]}
		case 1:
			return Op{Class: ClassFP}
		default:
			return Op{Class: ClassInt}
		}
	}
	d1, d2 := int32(rng.Intn(6)), int32(rng.Intn(120))
	switch rng.Intn(8) {
	case 0, 1:
		return Op{Class: ClassLoad, Addr: far(), Dep1: d1}
	case 2:
		return Op{Class: ClassStore, Addr: far(), Dep1: d1}
	case 3:
		return Op{Class: ClassBranch, PC: uint64(rng.Intn(64) * 16), Taken: rng.Bool(0.6), Dep1: d1}
	case 4:
		return Op{Class: ClassFP, Dep1: d1, Dep2: d2}
	default:
		return Op{Class: ClassInt, Dep1: d1, Dep2: d2, Lat: uint8(rng.Intn(3))}
	}
}

// slowMem is a next level behind a two-entry port that accepts one
// request every `every` cycles and answers reads `delay` cycles later:
// loads find the port full and retry, the store buffer backs up into
// commit, and the ROB and the queues fill behind them. It is wired, so
// a gated kernel can put the pair to sleep, and it answers NextEvent
// from its own state.
type slowMem struct {
	port     *mem.Port
	delay    sim.Cycle
	every    sim.Cycle
	acceptAt sim.Cycle
	pending  sim.Queue[timedLoad]
}

type timedLoad struct {
	resp mem.Resp
	at   sim.Cycle
}

func (m *slowMem) Name() string { return "mem" }

func (m *slowMem) Eval(k *sim.Kernel) {
	now := k.Cycle()
	if now >= m.acceptAt {
		if req, ok := m.port.Down.Pop(); ok {
			m.acceptAt = now + m.every
			if req.Kind == mem.Read {
				m.pending.Push(timedLoad{mem.Resp{ID: req.ID, Addr: req.Addr}, now + m.delay})
			}
		}
	}
	for m.pending.Len() > 0 && m.pending.Front().at <= now && m.port.Up.CanPush() {
		p, _ := m.pending.Pop()
		m.port.Up.Push(p.resp)
	}
}

func (m *slowMem) Commit(k *sim.Kernel) { m.port.Up.Tick() }

func (m *slowMem) Wire(w sim.Waker) { m.port.WireBelow(w) }

func (m *slowMem) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	wake := sim.Never
	if m.port.Down.Len() > 0 {
		if now >= m.acceptAt {
			return 0, false
		}
		wake = m.acceptAt
	}
	if m.pending.Len() > 0 {
		switch at := m.pending.Front().at; {
		case at > now:
			if at < wake {
				wake = at
			}
		case m.port.Up.CanPush():
			return 0, false
		}
	}
	return wake, true
}

func (m *slowMem) SkipTo(now, target sim.Cycle) {}

// issueSide is one machine of the pair: core -> slowMem on its own
// kernel.
type issueSide struct {
	k    *sim.Kernel
	core *Core
	mem  *slowMem
}

func newIssueSide(cfg Config, seed uint64) *issueSide {
	port := mem.NewPort(2, 2)
	s := &issueSide{
		k:    sim.NewKernel(),
		core: New("cpu", cfg, &phasedStream{rng: sim.NewRand(seed)}, port, &mem.IDSource{}, 0),
		mem:  &slowMem{port: port, delay: 30, every: 4},
	}
	s.k.MustRegister(s.core)
	s.k.MustRegister(s.mem)
	return s
}

// coreCounters is every statistic the core exports.
type coreCounters struct {
	committed, cycles, loads, stores, mispredicts, branches, tlbMisses uint64
	stallROB, stallIQ, stallLSQ, stallSB, fetchBlocked                 uint64
	loadLatency, loadsCompleted                                        uint64
}

func countersOf(c *Core) coreCounters {
	return coreCounters{c.Committed, c.Cycles, c.LoadsIssued, c.StoresCommitted, c.Mispredicts, c.Branches, c.TLBMisses,
		c.StallROBFull, c.StallIQFull, c.StallLSQ, c.StallSBFull, c.FetchBlockedCycles, c.LoadLatHist.Sum(), c.LoadLatHist.Count()}
}

// pipelineState is the core's state outside the ROB entries.
type pipelineState struct {
	head, tail          uint64
	lsq, decq, storeBuf int
	fetchResumeAt       sim.Cycle
	fetchBlocked, ended bool
	loadsInMemory       int
	storeLines          [storeLineSlots]uint32
}

func pipelineOf(c *Core) pipelineState {
	return pipelineState{c.headSeq, c.tailSeq, c.lsqCount, c.decq.Len(), c.storeBuf.Len(),
		c.fetchResumeAt, c.fetchBlocked, c.streamDone, c.loads.n, c.storeLines}
}

// compareCores fails on the first difference between the cores p and
// r: counters, pipeline state, TLB, load-latency histogram, every ROB
// entry with its wake-up state, and each issue queue's count and
// candidate set.
func compareCores(t *testing.T, now sim.Cycle, p, r *Core) {
	t.Helper()
	if got, want := countersOf(p), countersOf(r); got != want {
		t.Fatalf("cycle %d: counters differ:\n got %+v\nwant %+v", now, got, want)
	}
	if got, want := pipelineOf(p), pipelineOf(r); got != want {
		t.Fatalf("cycle %d: pipeline state differs:\n got %+v\nwant %+v", now, got, want)
	}
	if !reflect.DeepEqual(p.tlb, r.tlb) || !reflect.DeepEqual(p.LoadLatHist, r.LoadLatHist) {
		t.Fatalf("cycle %d: TLB contents or load-latency histogram differ", now)
	}
	for seq := p.headSeq; seq < p.tailSeq; seq++ {
		if pe, re := p.robAt(seq), r.robAt(seq); *pe != *re {
			t.Fatalf("cycle %d: ROB entry %d differs:\n got %+v\nwant %+v", now, seq, *pe, *re)
		}
	}
	for qi := range p.iq {
		if pq, rq := &p.iq[qi], &r.iq[qi]; pq.n != rq.n || pq.cand != rq.cand || !reflect.DeepEqual(pq.ready, rq.ready) {
			t.Fatalf("cycle %d: queue %d holds %d ops, candidates %v (%d), twin %d, %v (%d)",
				now, qi, pq.n, pq.ready, pq.cand, rq.n, rq.ready, rq.cand)
		}
	}
}

// coreWords flattens what compareCores compares of c but the histogram
// — of which it folds the sum and count — for the digest.
func coreWords(c *Core) []uint64 {
	k, pl := countersOf(c), pipelineOf(c)
	w := []uint64{k.committed, k.cycles, k.loads, k.stores, k.mispredicts, k.branches, k.tlbMisses,
		k.stallROB, k.stallIQ, k.stallLSQ, k.stallSB, k.fetchBlocked, k.loadLatency, k.loadsCompleted,
		pl.head, pl.tail, uint64(pl.lsq), uint64(pl.decq), uint64(pl.storeBuf), pl.fetchResumeAt,
		bit(pl.fetchBlocked), bit(pl.ended), uint64(pl.loadsInMemory)}
	for _, n := range pl.storeLines {
		w = append(w, uint64(n))
	}
	w = append(w, c.tlb...)
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.robAt(seq)
		w = append(w, uint64(e.op.Addr), e.op.PC, uint64(e.op.Dep1), uint64(e.op.Dep2), uint64(e.op.Class),
			bit(e.op.Taken), uint64(e.op.Lat), e.seq, e.dispatched, bit(e.issued), bit(e.done), e.doneAt,
			bit(e.inFlight), bit(e.mispredict), uint64(e.tlbExtra), e.readyAt, uint64(e.waitFor))
	}
	for qi := range c.iq {
		w = append(w, uint64(c.iq[qi].n), uint64(c.iq[qi].cand))
		w = append(w, c.iq[qi].ready...)
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

// checkCandidateSets recounts, from the ROB alone, what the wake-up
// state of the production core summarises: an un-issued op is a
// candidate exactly when every producer still in the ROB is done, its
// readyAt is then max(dispatched+1, their doneAt) or already past,
// waitFor counts its un-done producers, and nothing else is in a set.
func checkCandidateSets(t *testing.T, now sim.Cycle, c *Core) {
	t.Helper()
	var want [numIQ]sim.BitSet
	for qi := range want {
		want[qi] = sim.NewBitSet(len(c.rob))
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.robAt(seq)
		if e.issued {
			continue
		}
		readyAt, waiting := e.dispatched+1, 0
		deps := []int32{e.op.Dep1, e.op.Dep2}
		if e.op.Dep1 == e.op.Dep2 {
			deps = deps[:1]
		}
		for _, d := range deps {
			if d <= 0 || uint64(d) > seq || seq-uint64(d) < c.headSeq {
				continue
			}
			switch pe := c.robAt(seq - uint64(d)); {
			case !pe.done:
				waiting++
			case pe.doneAt > readyAt:
				readyAt = pe.doneAt
			}
		}
		if int(e.waitFor) != waiting {
			t.Fatalf("cycle %d: seq %d waits for %d producers, %d are not done", now, seq, e.waitFor, waiting)
		}
		if waiting == 0 {
			// A producer that has since committed may still bound readyAt,
			// with a doneAt no later than the cycle it retired in.
			if e.readyAt < readyAt || (e.readyAt > readyAt && e.readyAt >= now) {
				t.Fatalf("cycle %d: seq %d readyAt %d, recount %d", now, seq, e.readyAt, readyAt)
			}
			want[e.queue].Set(int(seq & c.robMask))
		}
	}
	for qi := range want {
		n := 0
		for i := want[qi].Next(0); i >= 0; i = want[qi].Next(i + 1) {
			n++
		}
		if !reflect.DeepEqual(c.iq[qi].ready, want[qi]) || c.iq[qi].cand != n {
			t.Fatalf("cycle %d: queue %d candidates %v (counted %d), recount %v", now, qi, c.iq[qi].ready, c.iq[qi].cand, want[qi])
		}
	}
}

// refusedLoad reports whether this cycle's oldest ready memory op is a
// load that tryExecute will refuse: nothing forwards to it and the port
// has been full since the cycle began.
func refusedLoad(c *Core, now sim.Cycle) bool {
	if c.port.Down.CanPush() || c.cfg.IntMemIssue <= 0 {
		return false
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.robAt(seq)
		if !e.issued && e.queue == qMem && c.iq[qMem].ready.Has(int(seq&c.robMask)) && e.readyAt <= now {
			return e.op.Class == ClassLoad && !c.storeForward(e.op.Addr)
		}
	}
	return false
}

// pollingDigests holds, per subtest of TestIssueMatchesPollingReference,
// the digest of the gated core's coreWords after every Run. The first
// digests were recorded at commit e8e60a4, where a third machine ran the
// polling issue stage — every queued op's producers probed each cycle —
// on the same stream and matched the gated core on every cycle: each
// digest is the polling stage's behaviour on its stream. They were
// re-recorded at commit 3161d64 over this fold, which keeps the state
// after each Run and no longer the kernel's polls, with Run budgets drawn
// from the phase RNG. They pin the order the issue walk visits candidates
// in, which the ungated twin, walking the same sets, cannot see; each
// ring of 128 slots spans two set words. A digest changes only with a
// deliberate change to the core, recorded in CHANGES.md, and never to
// turn the test green.
var pollingDigests = map[string]uint64{
	"ROB96/LSQ64/IntLatency1":  0x7bd208d544f2b327,
	"ROB100/LSQ12/IntLatency1": 0xe89b35f25b2c5b49,
	"ROB128/LSQ64/IntLatency1": 0x14cfd830e179a654,
	"ROB128/LSQ64/IntLatency0": 0x3656ae56c176b387,
}

// TestIssueMatchesPollingReference drives a core through gated and
// ungated phases, single cycles and multi-cycle Runs of seeded lengths,
// and a twin whose kernel is never gated with the same seeded stream
// against the same slow memory, and compares everything observable on
// every cycle both reach. Between Runs the candidate sets must equal
// their recount from the ROB, and at the end the digest must be the one
// the polling reference produced on this stream.
func TestIssueMatchesPollingReference(t *testing.T) {
	cycles := sim.Cycle(30_000)
	if testing.Short() {
		cycles = 8_000
	}
	seen := map[string]uint64{}
	for _, v := range []struct {
		rob, lsq, intLat int
		seed             uint64
	}{
		{rob: 96, lsq: 64, intLat: 1, seed: 5},
		{rob: 100, lsq: 12, intLat: 1, seed: 6}, // a short LSQ stalls dispatch before the memory queue fills
		{rob: 128, lsq: 64, intLat: 1, seed: 7},
		{rob: 128, lsq: 64, intLat: 0, seed: 8}, // a consumer issues in the cycle its producer does, mid-walk
	} {
		name := fmt.Sprintf("ROB%d/LSQ%d/IntLatency%d", v.rob, v.lsq, v.intLat)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ROBSize, cfg.LSQSize, cfg.IntLatency = v.rob, v.lsq, v.intLat
			p, u := newIssueSide(cfg, v.seed), newIssueSide(cfg, v.seed)
			u.k.SetGating(false)
			dig := uint64(0xcbf29ce484222325)
			phase := sim.NewRand(v.seed ^ 0x5ca1ab1e)
			for now, switchAt := sim.Cycle(0), sim.Cycle(0); now < cycles; now = p.k.Cycle() {
				if now >= switchAt {
					p.k.SetGating(phase.Bool(0.7))
					switchAt = now + 128
				}
				if _, idle := p.core.NextEvent(now); idle {
					seen["idle polls"]++
				}
				if refusedLoad(p.core, now) {
					seen["port-full load retries"]++
				}
				// One cycle, or a Run long enough to sleep and fast-forward.
				budget := uint64(1)
				if phase.Bool(0.3) {
					budget = 2 + uint64(phase.Intn(200))
				}
				if !p.k.Gating() {
					seen["ungated cycles"] += budget
				}
				if a, b := p.k.Run(budget), u.k.Run(budget); a != b || p.k.Cycle() != u.k.Cycle() {
					t.Fatalf("cycle %d: kernels advanced %d and %d cycles", now, a, b)
				}
				compareCores(t, p.k.Cycle(), p.core, u.core)
				checkCandidateSets(t, p.k.Cycle(), p.core)
				dig = fold(dig, p.k.Cycle())
				dig = fold(dig, coreWords(p.core)...)
			}
			if want := pollingDigests[name]; dig != want {
				t.Errorf("digest %#x, recorded %#x: the core's cycles differ from the polling stage's", dig, want)
			}
			c := p.core
			for name, n := range map[string]uint64{
				"commits": c.Committed, "loads": c.LoadLatHist.Count(), "mispredicts": c.Mispredicts,
				"tlb misses": c.TLBMisses, "forwarded loads": c.LoadsIssued - uint64(c.loads.n) - c.LoadLatHist.Count(),
				"rob-full stalls": c.StallROBFull, "iq-full stalls": c.StallIQFull, "lsq-full stalls": c.StallLSQ,
				"store-buffer-full stalls": c.StallSBFull, "fetch-blocked cycles": c.FetchBlockedCycles,
				"fast-forwards": p.k.FastForwards,
			} {
				seen[name] += n
			}
		})
	}
	t.Logf("exercised: %v", seen)
	for _, name := range []string{
		"commits", "loads", "mispredicts", "tlb misses", "forwarded loads", "rob-full stalls", "iq-full stalls",
		"lsq-full stalls", "store-buffer-full stalls", "fetch-blocked cycles", "idle polls", "fast-forwards",
		"ungated cycles", "port-full load retries",
	} {
		if seen[name] == 0 {
			t.Errorf("the stream never produced %s", name)
		}
	}
}

// TestLoadTableMatchesMap holds the open-addressed table against a map
// through fills to its bound and removals in the middle of probe runs,
// with IDs that collide (a stride of the table size) and IDs that do not.
func TestLoadTableMatchesMap(t *testing.T) {
	const maxLoads = 12
	tab := newLoadTable(maxLoads)
	model := map[uint64]uint64{}
	rng := sim.NewRand(9)
	var live []uint64
	next := uint64(0)
	for step := 0; step < 20_000; step++ {
		if len(live) < maxLoads && rng.Intn(2) == 0 {
			next += []uint64{1, uint64(len(tab.ids)), 3}[rng.Intn(3)]
			tab.put(next, uint64(step))
			model[next] = uint64(step)
			live = append(live, next)
		} else if len(live) > 0 {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if seq, ok := tab.take(id); !ok || seq != model[id] {
				t.Fatalf("step %d: take(%d) = %d, %v; want %d", step, id, seq, ok, model[id])
			}
			delete(model, id)
		}
		if _, ok := tab.take(next + 1); ok {
			t.Fatalf("step %d: take of an absent ID succeeded", step)
		}
		if tab.n != len(model) {
			t.Fatalf("step %d: table counts %d, model %d", step, tab.n, len(model))
		}
	}
	for _, id := range live {
		if seq, ok := tab.take(id); !ok || seq != model[id] {
			t.Fatalf("drain: take(%d) = %d, %v; want %d", id, seq, ok, model[id])
		}
	}
	for i, id := range tab.ids {
		if id != 0 {
			t.Fatalf("slot %d still holds %d after the drain", i, id)
		}
	}
}
