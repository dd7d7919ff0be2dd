package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// equivConfigs are the meshes the driven traffic runs on: the D-NUCA's
// own, one whose node sets span more than one bitset word, and one whose
// per-router VC range does.
var equivConfigs = []MeshConfig{
	{Width: 8, Height: 5, VCs: 4, VCDepth: 4},  // DN-4x8 plus the controller row
	{Width: 9, Height: 8, VCs: 2, VCDepth: 2},  // 72 routers
	{Width: 3, Height: 3, VCs: 13, VCDepth: 3}, // NumDirs*VCs = 65
}

// delivery is one picked-up message as either mesh reports it.
type delivery struct {
	node                int
	id                  uint64
	injected, delivered sim.Cycle
}

// meshPair drives two production meshes with the same calls: m skips
// idle gaps with SkipIdle and picks up through its delivery walk, twin
// steps through them and polls every node. It fails on the first
// observable difference and folds m's state into a digest.
type meshPair struct {
	t       *testing.T
	cfg     MeshConfig
	m, twin *Mesh[struct{}]
	now     sim.Cycle
	id      uint64
	// picked is every message picked up so far, in pickup order.
	picked []delivery
	dig    uint64
}

func newMeshPair(t *testing.T, cfg MeshConfig) *meshPair {
	return &meshPair{t: t, cfg: cfg, m: NewMesh[struct{}](cfg), twin: NewMesh[struct{}](cfg), dig: 0xcbf29ce484222325}
}

func (p *meshPair) coord(n int) Coord { return Coord{n % p.cfg.Width, n / p.cfg.Width} }

// fold mixes words into the pair's FNV-1a digest.
func (p *meshPair) fold(words ...uint64) {
	for _, w := range words {
		p.dig = (p.dig ^ w) * 0x100000001b3
	}
}

// inject offers twin messages to both meshes.
func (p *meshPair) inject(src, dst Coord, flits int) {
	p.t.Helper()
	p.id++
	msg := testMessage{ID: p.id, Src: src, Dst: dst, Flits: flits}
	ok := p.m.Inject(msg, p.now)
	if twin := p.twin.Inject(msg, p.now); ok != twin {
		p.t.Fatalf("cycle %d: Inject(%v->%v) = %v, twin %v", p.now, src, dst, ok, twin)
	}
	p.fold(p.id, bit(ok))
}

// step advances both meshes one cycle and compares everything visible.
func (p *meshPair) step() {
	p.t.Helper()
	p.m.Step(p.now)
	p.twin.Step(p.now)
	p.now++
	p.compare()
}

// skip fast-forwards m over delta idle cycles and steps the twin
// through them; both must be Quiet.
func (p *meshPair) skip(delta uint64) {
	p.t.Helper()
	if !p.m.Quiet() || !p.twin.Quiet() {
		p.t.Fatalf("cycle %d: skip of a mesh that is not Quiet", p.now)
	}
	p.m.SkipIdle(delta)
	for end := p.now + delta; p.now < end; p.now++ {
		p.twin.Step(p.now)
	}
	p.compare()
}

// pickup drains up to limit messages per node from both meshes — m
// through its delivery walk, the twin by polling every node — and
// requires the same messages in the same order.
func (p *meshPair) pickup(limit int) {
	p.t.Helper()
	var got, want []delivery
	for n := p.m.NextDelivery(0); n >= 0; n = p.m.NextDelivery(n + 1) {
		for i := 0; i < limit; i++ {
			msg, ok := p.m.EjectOne(p.coord(n))
			if !ok {
				if i == 0 {
					p.t.Fatalf("cycle %d: NextDelivery named node %d, which holds nothing", p.now, n)
				}
				break
			}
			got = append(got, delivery{n, msg.ID, msg.Injected, msg.Delivered})
			p.fold(uint64(n), msg.ID, msg.Injected, msg.Delivered)
		}
	}
	for n := 0; n < p.cfg.Width*p.cfg.Height; n++ {
		for i := 0; i < limit; i++ {
			msg, ok := p.twin.EjectOne(p.coord(n))
			if !ok {
				break
			}
			want = append(want, delivery{n, msg.ID, msg.Injected, msg.Delivered})
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		p.t.Fatalf("cycle %d: picked up %v, twin %v", p.now, got, want)
	}
	p.picked = append(p.picked, got...)
	p.compare()
}

// compare checks both meshes' invariants, then the counters, Quiet,
// the queues and every router's VCs and reservations of m against the
// twin, folding m's into the digest.
func (p *meshPair) compare() {
	p.t.Helper()
	m, tw := p.m, p.twin
	for _, x := range []*Mesh[struct{}]{m, tw} {
		if err := x.CheckInvariants(); err != nil {
			p.t.Fatalf("cycle %d: %v", p.now, err)
		}
	}
	counters := func(x *Mesh[struct{}]) [6]uint64 {
		return [6]uint64{x.MsgsInjected, x.MsgsDelivered, x.FlitHops,
			bit(x.Quiet()), uint64(x.InFlight()), uint64(x.rr)}
	}
	c := counters(m)
	if want := counters(tw); c != want {
		p.t.Fatalf("cycle %d: counters/Quiet/InFlight/rotation %v, twin %v", p.now, c, want)
	}
	p.fold(p.now)
	p.fold(c[:]...)
	// ids lists the messages a queue holds, by ID.
	ids := func(x *Mesh[struct{}], q *sim.Queue[int32]) string {
		var out []uint64
		for i := 0; i < q.Len(); i++ {
			out = append(out, x.msgs[q.At(i)].ID)
		}
		return fmt.Sprint(out)
	}
	for n := 0; n < m.nodes; n++ {
		p.fold(uint64(m.injectQ[n].Len()), uint64(m.ejectQ[n].Len()))
		if m.injectQ[n].Len()+m.ejectQ[n].Len()+tw.injectQ[n].Len()+tw.ejectQ[n].Len() > 0 {
			if a, b := ids(m, &m.injectQ[n])+ids(m, &m.ejectQ[n]), ids(tw, &tw.injectQ[n])+ids(tw, &tw.ejectQ[n]); a != b {
				p.t.Fatalf("cycle %d node %d: staged and delivered %s, twin %s", p.now, n, a, b)
			}
		}
		for s := 0; s < m.slots; s++ {
			g := n*m.slots + s
			st, want := m.vcs[g], tw.vcs[g]
			var id, wantID uint64
			if st.n > 0 {
				id = m.msgs[st.msg].ID
			}
			if want.n > 0 {
				wantID = tw.msgs[want.msg].ID
			}
			st.msg, want.msg = 0, 0 // pool handles are private; the IDs compare
			if st != want || id != wantID || m.owner[g] != tw.owner[g] {
				p.t.Fatalf("cycle %d node %d slot %d: %+v msg %d reserved=%v, twin %+v msg %d reserved=%v",
					p.now, n, s, st, id, m.owner[g], want, wantID, tw.owner[g])
			}
			if st.n > 0 || st.routed || m.owner[g] {
				p.fold(uint64(g), id, uint64(st.n), uint64(st.first), uint64(st.flits), bit(st.routed),
					uint64(st.outDir), uint64(st.outVC), bit(m.owner[g]))
			}
		}
	}
}

// burst injects seeded random traffic for n cycles: 1-5 flit messages,
// about a third of them aimed at one hot sink, picked up on most cycles
// only and sometimes one message per node at a time.
func (p *meshPair) burst(rng *sim.Rand, n int, rate float64, sink Coord) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		for rng.Bool(rate) {
			src := Coord{rng.Intn(p.cfg.Width), rng.Intn(p.cfg.Height)}
			dst := sink
			if !rng.Bool(0.35) {
				dst = Coord{rng.Intn(p.cfg.Width), rng.Intn(p.cfg.Height)}
			}
			p.inject(src, dst, 1+rng.Intn(5))
		}
		p.step()
		switch rng.Intn(4) {
		case 0: // leave deliveries waiting
		case 1:
			p.pickup(1)
		default:
			p.pickup(1 << 30)
		}
	}
}

// settle steps until every message is delivered and picked up.
func (p *meshPair) settle() {
	p.t.Helper()
	for i := 0; !p.m.Quiet(); i++ {
		if i > 100_000 {
			p.t.Fatalf("cycle %d: mesh never drained (%d in flight)", p.now, p.m.InFlight())
		}
		p.step()
		p.pickup(1 << 30)
	}
}

// fullScanDigests holds, per subtest of TestMeshMatchesFullScanReference,
// the digest of m's state on every cycle and every pickup. They were
// recorded at commit e8e60a4, where the same traffic also drove the
// full-scan mesh — every router's every slot probed each Step — and
// that reference matched m on every cycle: each digest is the full
// scan's behaviour on its traffic. They were re-recorded at commit
// cb2a50f over the same fold less the latency and hop totals the mesh
// no longer keeps. They pin the arbitration order —
// for one, across a router's two busy words on the 65-slot mesh —
// which the twin, stepping the same code, cannot see. A digest changes
// only with a deliberate change to the mesh, recorded in CHANGES.md,
// and never to turn the test green.
var fullScanDigests = map[string]uint64{
	"8x5_vc4_seed1":  0x3a9dae73dbaab833,
	"8x5_vc4_seed2":  0xf79d5a8b5efe3d3e,
	"8x5_vc4_seed3":  0x672cf28cdb11d58d,
	"9x8_vc2_seed1":  0x28a2dd7e3a8f8b1d,
	"9x8_vc2_seed2":  0x47e283077603be1c,
	"9x8_vc2_seed3":  0x5086c216a59803ef,
	"3x3_vc13_seed1": 0x461bef6e1c471068,
	"3x3_vc13_seed2": 0x7974e53df15f1a05,
	"3x3_vc13_seed3": 0x16b425a79a3c4585,
}

// TestMeshMatchesFullScanReference drives two production meshes with
// the same seeded traffic — bursts separated by idle gaps that are
// partly stepped and partly skipped — and requires, on every cycle,
// identical state, each mesh's invariants, and, at the end, the digest
// the full-scan reference produced on this traffic.
func TestMeshMatchesFullScanReference(t *testing.T) {
	for _, cfg := range equivConfigs {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg, seed := cfg, seed
			name := fmt.Sprintf("%dx%d_vc%d_seed%d", cfg.Width, cfg.Height, cfg.VCs, seed)
			t.Run(name, func(t *testing.T) {
				rng := sim.NewRand(seed)
				p := newMeshPair(t, cfg)
				sink := Coord{rng.Intn(cfg.Width), rng.Intn(cfg.Height)}
				for round := 0; round < 12; round++ {
					p.burst(rng, 20+rng.Intn(150), []float64{0.2, 0.5, 0.8}[rng.Intn(3)], sink)
					p.settle()
					for i := rng.Intn(4); i > 0; i-- {
						p.step() // idle cycles that are stepped, not skipped
					}
					p.skip(uint64(1 + rng.Intn(3*p.m.slots)))
					if rng.Bool(0.3) {
						p.skip(uint64(rng.Intn(1 << 20)))
					}
				}
				if p.id == 0 || uint64(len(p.picked)) != p.m.MsgsInjected {
					t.Fatalf("picked up %d of %d injected messages (%d offered)",
						len(p.picked), p.m.MsgsInjected, p.id)
				}
				if want := fullScanDigests[name]; p.dig != want {
					t.Errorf("digest %#x, recorded %#x: the mesh's cycles differ from the full scan's", p.dig, want)
				}
			})
		}
	}
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestMeshSkipIdleEqualsIdleSteps: n no-op Steps of a quiet mesh and one
// SkipIdle(n) leave the mesh in the same state — the same contended
// traffic afterwards is delivered on the same schedule.
func TestMeshSkipIdleEqualsIdleSteps(t *testing.T) {
	cfg := equivConfigs[0]
	schedule := func(n int, skip bool) []delivery {
		m := NewMesh[struct{}](cfg)
		now := sim.Cycle(0)
		if skip {
			m.SkipIdle(uint64(n))
			now += sim.Cycle(n)
		} else {
			for ; now < sim.Cycle(n); now++ {
				m.Step(now)
			}
		}
		// Every node of the far column sends 3-flit messages to the
		// controller corner: the rotation pointer decides who wins.
		rng := sim.NewRand(5)
		var out []delivery
		for sent := 0; sent < 60 || !m.Quiet(); now++ {
			if sent < 60 {
				src := Coord{cfg.Width - 1 - rng.Intn(2), rng.Intn(cfg.Height)}
				if m.Inject(testMessage{ID: uint64(sent + 1), Src: src, Dst: Coord{0, 0}, Flits: 3}, now) {
					sent++
				}
			}
			m.Step(now)
			for node := m.NextDelivery(0); node >= 0; node = m.NextDelivery(node + 1) {
				msg, _ := m.EjectOne(Coord{node % cfg.Width, node / cfg.Width})
				out = append(out, delivery{node, msg.ID, msg.Injected - sim.Cycle(n), msg.Delivered - sim.Cycle(n)})
			}
			if now > sim.Cycle(n)+100_000 {
				t.Fatalf("n=%d skip=%v: traffic never drained", n, skip)
			}
		}
		return out
	}
	base := fmt.Sprint(schedule(0, false))
	moved := false
	for _, n := range []int{1, 7, 19, 20, 21, 1003} {
		stepped, skipped := fmt.Sprint(schedule(n, false)), fmt.Sprint(schedule(n, true))
		if stepped != skipped {
			t.Errorf("n=%d: delivery schedule after SkipIdle differs from %d idle Steps\n stepped %s\n skipped %s",
				n, n, stepped, skipped)
		}
		if stepped != base {
			moved = true
		}
	}
	if !moved {
		t.Error("no idle gap changed the schedule: the traffic does not exercise the rotation pointer")
	}
}
