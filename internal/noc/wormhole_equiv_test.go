package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// equivConfigs are the meshes the activity-set Mesh is compared with the
// full-scan reference on: the D-NUCA's own, one whose node sets span
// more than one bitset word, and one whose per-router VC range does.
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

// meshPair drives the production mesh and the reference with the same
// calls and fails on the first observable difference.
type meshPair struct {
	t   *testing.T
	cfg MeshConfig
	m   *Mesh[struct{}]
	ref *refMesh
	now sim.Cycle
	id  uint64
	// picked is every message picked up so far, in pickup order.
	picked []delivery
}

func newMeshPair(t *testing.T, cfg MeshConfig) *meshPair {
	return &meshPair{t: t, cfg: cfg, m: NewMesh[struct{}](cfg), ref: newRefMesh(cfg)}
}

func (p *meshPair) coord(n int) Coord { return Coord{n % p.cfg.Width, n / p.cfg.Width} }

// inject offers twin messages to both meshes.
func (p *meshPair) inject(src, dst Coord, flits int) {
	p.t.Helper()
	p.id++
	a := testMessage{ID: p.id, Src: src, Dst: dst, Flits: flits}
	b := a
	if got, want := p.m.Inject(a, p.now), p.ref.Inject(&b, p.now); got != want {
		p.t.Fatalf("cycle %d: Inject(%v->%v) = %v, reference %v", p.now, src, dst, got, want)
	}
}

// step advances both meshes one cycle and compares everything visible.
func (p *meshPair) step() {
	p.t.Helper()
	p.m.Step(p.now)
	p.ref.Step(p.now)
	p.now++
	p.compare()
}

// skip fast-forwards both meshes, which must be Quiet.
func (p *meshPair) skip(delta uint64) {
	p.t.Helper()
	if !p.m.Quiet() || !p.ref.Quiet() {
		p.t.Fatalf("cycle %d: skip of a mesh that is not Quiet", p.now)
	}
	p.m.SkipIdle(delta)
	p.ref.SkipIdle(delta)
	p.now += sim.Cycle(delta)
}

// pickup drains up to limit messages per node from both meshes — the
// production mesh through its delivery walk, the reference by polling
// every node — and requires the same messages in the same order.
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
		}
	}
	for n := 0; n < p.cfg.Width*p.cfg.Height; n++ {
		for i := 0; i < limit; i++ {
			msg, ok := p.ref.EjectOne(p.coord(n))
			if !ok {
				break
			}
			want = append(want, delivery{n, msg.ID, msg.Injected, msg.Delivered})
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		p.t.Fatalf("cycle %d: picked up %v, reference %v", p.now, got, want)
	}
	p.picked = append(p.picked, got...)
	p.compare()
}

// compare checks the counters, Quiet, the whole router state against the
// reference, and the mesh's own invariants.
func (p *meshPair) compare() {
	p.t.Helper()
	m, ref := p.m, p.ref
	if m.MsgsInjected != ref.MsgsInjected || m.MsgsDelivered != ref.MsgsDelivered ||
		m.FlitHops != ref.FlitHops || m.TotalLatency != ref.TotalLatency || m.TotalHops != ref.TotalHops {
		p.t.Fatalf("cycle %d: counters %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", p.now,
			m.MsgsInjected, m.MsgsDelivered, m.FlitHops, m.TotalLatency, m.TotalHops,
			ref.MsgsInjected, ref.MsgsDelivered, ref.FlitHops, ref.TotalLatency, ref.TotalHops)
	}
	if m.Quiet() != ref.Quiet() || m.InFlight() != ref.InFlight() {
		p.t.Fatalf("cycle %d: Quiet %v InFlight %d, reference %v %d",
			p.now, m.Quiet(), m.InFlight(), ref.Quiet(), ref.InFlight())
	}
	if err := m.CheckInvariants(); err != nil {
		p.t.Fatalf("cycle %d: %v", p.now, err)
	}
	for n, r := range ref.routers {
		if m.injectQ[n].Len() != len(ref.injectQ[n]) || m.ejectQ[n].Len() != r.ejectQ.Len() {
			p.t.Fatalf("cycle %d node %d: queues %d/%d, reference %d/%d", p.now, n,
				m.injectQ[n].Len(), m.ejectQ[n].Len(), len(ref.injectQ[n]), r.ejectQ.Len())
		}
		if rr := r.rrNext; rr != m.rr {
			p.t.Fatalf("cycle %d: rotation pointer %d, reference router %d has %d", p.now, m.rr, n, rr)
		}
		for d := Dir(0); d < NumDirs; d++ {
			for vc := 0; vc < p.cfg.VCs; vc++ {
				g := n*m.slots + int(d)*p.cfg.VCs + vc
				st, want := &m.vcs[g], &r.in[d][vc]
				if int(st.n) != len(want.buf) || st.routed != want.routed ||
					st.outDir != want.outDir || int(st.outVC) != want.outVC {
					p.t.Fatalf("cycle %d node %d port %v vc %d: %d flits routed=%v out=%v/%d, reference %d %v %v/%d",
						p.now, n, d, vc, st.n, st.routed, st.outDir, st.outVC,
						len(want.buf), want.routed, want.outDir, want.outVC)
				}
				for i := range want.buf {
					k := int(st.first) + i // the flit's index in its message
					if m.msgs[st.msg].ID != want.buf[i].msg.ID || (k == 0) != want.buf[i].head || (k == int(st.flits)-1) != want.buf[i].tail {
						p.t.Fatalf("cycle %d slot %d flit %d differs from the reference", p.now, g, i)
					}
				}
				if m.owner[g] != r.owner[d][vc].active {
					p.t.Fatalf("cycle %d node %d output %v vc %d: reserved=%v, reference %v",
						p.now, n, d, vc, m.owner[g], r.owner[d][vc].active)
				}
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

// TestMeshMatchesFullScanReference drives the activity-set mesh and the
// full-scan reference with the same seeded traffic — bursts separated by
// idle gaps that are partly stepped and partly skipped — and requires
// identical behaviour on every cycle.
func TestMeshMatchesFullScanReference(t *testing.T) {
	for _, cfg := range equivConfigs {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg, seed := cfg, seed
			t.Run(fmt.Sprintf("%dx%d_vc%d_seed%d", cfg.Width, cfg.Height, cfg.VCs, seed), func(t *testing.T) {
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
			})
		}
	}
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
