package noc

// The full-scan wormhole mesh as it stood before the activity sets:
// Step probes every router's every (dir, vc) slot, rescans every
// injection slice and keeps one round-robin pointer per router. Step and
// SkipIdle are kept verbatim as the reference the production Mesh is
// compared against, cycle by cycle (wormhole_equiv_test.go); only the
// type names changed (refMesh, refMove, and refFlit and refVCState, the
// flit that points at its message and the VC that buffers such flits,
// as they stood before messages became values).

import (
	"fmt"

	"repro/internal/sim"
)

// testMessage is the message the mesh tests send: no payload.
type testMessage = Message[struct{}]

// refFlit is the wormhole flow-control unit.
type refFlit struct {
	msg  *testMessage
	head bool
	tail bool
}

// refVCState tracks an input virtual channel's wormhole reservation.
type refVCState struct {
	buf []refFlit
	// routed is set once the head flit has picked an output.
	routed bool
	outDir Dir
	outVC  int
}

// outOwner records which input VC currently owns an output VC (from head
// until tail, the wormhole invariant).
type outOwner struct {
	active bool
	inDir  Dir
	inVC   int
}

type router struct {
	pos Coord
	// in[dir][vc] input-buffered virtual channels.
	in [NumDirs][]refVCState
	// owner[dir][vc] output VC reservations.
	owner [NumDirs][]outOwner
	// ejected messages awaiting pickup by the local node.
	ejectQ sim.Queue[*testMessage]
	// rrNext rotates switch-allocation priority for fairness.
	rrNext int
}

// refMesh is a cycle-stepped 2-D wormhole mesh with input-buffered virtual
// channels, XY routing, and round-robin switch allocation. It is driven by
// a single owning component via Step, which keeps it deterministic.
//
// XY routing plus guaranteed ejection (unbounded eject queues drained by
// the owner) makes the network provably deadlock-free, the same argument
// the paper invokes for L-NUCA's acyclic networks.
type refMesh struct {
	cfg     MeshConfig
	routers []*router

	// injectQ holds messages not yet converted to flits, per node.
	injectQ [][]*testMessage

	// Per-Step scratch, hoisted out of the cycle loop so steady-state
	// stepping allocates nothing.
	moves    []refMove
	takenAll []outTaken

	// ejected counts messages delivered but not yet picked up, so Quiet
	// is O(1).
	ejected int

	// Stats
	MsgsInjected, MsgsDelivered uint64
	FlitHops                    uint64
	TotalLatency                uint64
	TotalHops                   uint64
}

// outTaken tracks which output ports a router granted this cycle.
type outTaken struct{ taken [NumDirs]bool }

// newRefMesh builds a mesh; it panics on invalid configuration (wiring bug).
func newRefMesh(cfg MeshConfig) *refMesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &refMesh{cfg: cfg}
	n := cfg.Width * cfg.Height
	m.routers = make([]*router, n)
	m.injectQ = make([][]*testMessage, n)
	m.takenAll = make([]outTaken, n)
	for i := range m.routers {
		r := &router{pos: Coord{i % cfg.Width, i / cfg.Width}}
		for d := 0; d < NumDirs; d++ {
			r.in[d] = make([]refVCState, cfg.VCs)
			r.owner[d] = make([]outOwner, cfg.VCs)
		}
		m.routers[i] = r
	}
	return m
}

func (m *refMesh) at(c Coord) *router {
	return m.routers[c.Y*m.cfg.Width+c.X]
}

// InBounds reports whether c is a valid node.
func (m *refMesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

// Inject queues msg for injection at its source node. It returns false
// when the source-local injection staging is saturated (more than VCDepth
// messages waiting), modeling finite injection bandwidth.
func (m *refMesh) Inject(msg *testMessage, now sim.Cycle) bool {
	if !m.InBounds(msg.Src) || !m.InBounds(msg.Dst) {
		panic(fmt.Sprintf("noc: inject out of bounds: %v -> %v", msg.Src, msg.Dst))
	}
	if msg.Flits <= 0 {
		msg.Flits = 1
	}
	idx := msg.Src.Y*m.cfg.Width + msg.Src.X
	if len(m.injectQ[idx]) >= m.cfg.VCDepth {
		return false
	}
	msg.Injected = now
	m.injectQ[idx] = append(m.injectQ[idx], msg)
	m.MsgsInjected++
	return true
}

// EjectOne pops a single delivered message at node c, if any. The
// queue's ring storage is reused, so draining allocates nothing.
func (m *refMesh) EjectOne(c Coord) (*testMessage, bool) {
	msg, ok := m.at(c).ejectQ.Pop()
	if ok {
		m.ejected--
	}
	return msg, ok
}

// refMove is a staged flit transfer computed during the allocation pass and
// applied afterwards, giving single-cycle-per-hop semantics without
// order dependence between routers.
type refMove struct {
	from     *router
	fromDir  Dir
	fromVC   int
	to       *router // nil for ejection
	toDir    Dir
	toVC     int
	f        refFlit
	lastFlit bool
}

// Step advances the mesh by one cycle.
func (m *refMesh) Step(now sim.Cycle) {
	// Stage injections: convert one message per node per cycle into flits
	// on a free Local input VC.
	for idx, q := range m.injectQ {
		if len(q) == 0 {
			continue
		}
		r := m.routers[idx]
		for vc := 0; vc < m.cfg.VCs; vc++ {
			st := &r.in[Local][vc]
			if len(st.buf) == 0 && !st.routed {
				msg := q[0]
				m.injectQ[idx] = q[1:]
				for i := 0; i < msg.Flits; i++ {
					st.buf = append(st.buf, refFlit{
						msg:  msg,
						head: i == 0,
						tail: i == msg.Flits-1,
					})
				}
				break
			}
		}
	}

	// Allocation pass: each router picks at most one flit per output
	// direction, reading only current buffer state. The staging slices
	// live on the refMesh and are reset here, not reallocated.
	moves := m.moves[:0]
	takenAll := m.takenAll
	for i := range takenAll {
		takenAll[i] = outTaken{}
	}

	for ri, r := range m.routers {
		// Round-robin over input (dir, vc) pairs for fairness.
		total := NumDirs * m.cfg.VCs
		for k := 0; k < total; k++ {
			slot := (r.rrNext + k) % total
			inDir := Dir(slot / m.cfg.VCs)
			inVC := slot % m.cfg.VCs
			st := &r.in[inDir][inVC]
			if len(st.buf) == 0 {
				continue
			}
			f := st.buf[0]
			// Route computation on head flit.
			if f.head && !st.routed {
				st.outDir = XYRoute(r.pos, f.msg.Dst)
				st.outVC = -1
				st.routed = true
			}
			if !st.routed {
				continue // body flit of a stream whose head is gone: impossible, but safe
			}
			out := st.outDir
			if takenAll[ri].taken[out] {
				continue // output port already granted this cycle
			}
			if out == Local {
				// Ejection consumes the flit immediately (guaranteed
				// consumption keeps the network deadlock-free).
				moves = append(moves, refMove{
					from: r, fromDir: inDir, fromVC: inVC,
					to: nil, f: f, lastFlit: f.tail,
				})
				takenAll[ri].taken[out] = true
				continue
			}
			next := m.at(r.pos.Step(out))
			inPortAtNext := out.Opposite()
			// Virtual-channel allocation on head flits.
			if st.outVC < 0 {
				for vc := 0; vc < m.cfg.VCs; vc++ {
					own := &next.in[inPortAtNext][vc]
					owner := &r.owner[out][vc]
					if !owner.active && len(own.buf) == 0 && !own.routed {
						st.outVC = vc
						owner.active = true
						owner.inDir = inDir
						owner.inVC = inVC
						break
					}
				}
				if st.outVC < 0 {
					continue // no VC available this cycle
				}
			}
			// Buffer space check (credit-equivalent, conservative: flits
			// leaving downstream this cycle do not free space until next).
			dstBuf := &next.in[inPortAtNext][st.outVC]
			if len(dstBuf.buf) >= m.cfg.VCDepth {
				continue
			}
			moves = append(moves, refMove{
				from: r, fromDir: inDir, fromVC: inVC,
				to: next, toDir: inPortAtNext, toVC: st.outVC,
				f: f, lastFlit: f.tail,
			})
			takenAll[ri].taken[out] = true
		}
		r.rrNext = (r.rrNext + 1) % total
	}

	// Apply pass.
	for _, mv := range moves {
		src := &mv.from.in[mv.fromDir][mv.fromVC]
		copy(src.buf, src.buf[1:])
		src.buf = src.buf[:len(src.buf)-1]
		m.FlitHops++
		if mv.to == nil {
			// Ejection.
			if mv.f.tail {
				mv.f.msg.Delivered = now
				m.MsgsDelivered++
				lat := uint64(now - mv.f.msg.Injected)
				m.TotalLatency += lat
				m.TotalHops += uint64(Manhattan(mv.f.msg.Src, mv.f.msg.Dst))
				m.at(mv.f.msg.Dst).ejectQ.Push(mv.f.msg)
				m.ejected++
			}
		} else {
			dst := &mv.to.in[mv.toDir][mv.toVC]
			dst.buf = append(dst.buf, mv.f)
		}
		if mv.lastFlit {
			// Tail passed: release the wormhole reservations.
			if src.routed && src.outDir != Local && src.outVC >= 0 {
				mv.from.owner[src.outDir][src.outVC] = outOwner{}
			}
			src.routed = false
			src.outVC = 0
			src.outDir = 0
		}
	}
	m.moves = moves[:0]
}

// Quiet reports whether the mesh holds no traffic at all: nothing
// staged for injection, no flit buffered in any router, and no ejected
// message awaiting pickup. A Quiet mesh's Step is a no-op except for
// the round-robin pointer rotation, which SkipIdle replays.
func (m *refMesh) Quiet() bool {
	return m.InFlight() == 0 && m.ejected == 0
}

// SkipIdle advances every router's round-robin pointer by delta cycles,
// exactly what delta no-op Steps of a Quiet mesh would have done. The
// owner of the mesh calls it when it fast-forwards the clock.
func (m *refMesh) SkipIdle(delta uint64) {
	total := NumDirs * m.cfg.VCs
	for _, r := range m.routers {
		r.rrNext = (r.rrNext + int(delta%uint64(total))) % total
	}
}

// InFlight returns the number of injected-but-undelivered messages.
func (m *refMesh) InFlight() int {
	return int(m.MsgsInjected - m.MsgsDelivered)
}
