package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Message is a multi-flit packet traveling through a wormhole mesh,
// carrying a payload of its owner's type P. Messages are values: Inject
// copies one in, it moves from router to router inside the mesh, and
// EjectOne copies it out, so a message costs no allocation.
type Message[P any] struct {
	ID      uint64
	Src     Coord
	Dst     Coord
	Flits   int
	Payload P
	// Injected is stamped by the mesh when the head flit enters the
	// network; Delivered when the tail flit ejects.
	Injected, Delivered sim.Cycle
}

// flit is the wormhole flow-control unit. It belongs to the message of
// the VC that buffers it.
type flit struct {
	head bool
	tail bool
}

// maxMessageFlits sizes the flit buffers (Table I: 1-5 flits per
// message); a longer message still fits, its injection VC grows.
const maxMessageFlits = 5

// vcState tracks an input virtual channel's wormhole reservation.
type vcState[P any] struct {
	buf []flit
	// msg is the message the flits in buf belong to. A VC is reserved
	// from head to tail, so it buffers one message at a time: msg
	// arrives with the head flit and holds until the tail has left.
	msg Message[P]
	// routed is set once the head flit has picked an output.
	routed bool
	outDir Dir
	outVC  int
}

// MeshConfig parameterizes a wormhole mesh.
type MeshConfig struct {
	Width, Height int
	VCs           int // virtual channels per physical link (Table I: 4)
	VCDepth       int // flit buffer depth per VC (Table I: 4)
}

// Validate reports configuration errors.
func (c MeshConfig) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: mesh %dx%d has non-positive dimension", c.Width, c.Height)
	}
	if c.VCs <= 0 || c.VCDepth <= 0 {
		return fmt.Errorf("noc: VCs=%d depth=%d must be positive", c.VCs, c.VCDepth)
	}
	return nil
}

// Mesh is a cycle-stepped 2-D wormhole mesh with input-buffered virtual
// channels, XY routing, and round-robin switch allocation. It is driven by
// a single owning component via Step, which keeps it deterministic.
//
// XY routing plus guaranteed ejection (unbounded eject queues drained by
// the owner) makes the network provably deadlock-free, the same argument
// the paper invokes for L-NUCA's acyclic networks.
//
// Router state is laid out by index, not as one object per router: a
// node is y*Width+x, and input VC vc of port dir at a node is slot
// node*slots + dir*VCs + vc. Three activity sets name the slots and
// nodes that hold work, so a Step costs in proportion to the flits and
// messages that exist, not to the size of the mesh.
type Mesh[P any] struct {
	cfg    MeshConfig
	slots  int          // input VCs per router: NumDirs*VCs
	stride [NumDirs]int // node index offset of the neighbour in each direction

	vcs []vcState[P]
	// owner[node*slots+dir*VCs+vc] is set while output VC vc of port dir
	// is reserved by a message (from head until tail, the wormhole
	// invariant).
	owner []bool
	// injectQ holds messages not yet converted to flits, per node;
	// ejectQ holds delivered messages awaiting pickup by the local node.
	injectQ, ejectQ []sim.Queue[Message[P]]

	// Activity sets, maintained wherever a buffer or queue changes
	// between empty and non-empty.
	busy      sim.BitSet // slots whose buffer holds a flit
	staged    sim.BitSet // nodes whose injectQ is non-empty
	delivered sim.BitSet // nodes whose ejectQ is non-empty

	// rr rotates switch-allocation priority for fairness: every router
	// starts its scan of input VCs at slot rr, and rr advances once per
	// cycle for all of them.
	rr int

	// moves is per-Step scratch, hoisted out of the cycle loop so
	// steady-state stepping allocates nothing.
	moves []move

	// ejected counts messages delivered but not yet picked up, so Quiet
	// is O(1).
	ejected int

	// Stats
	MsgsInjected, MsgsDelivered uint64
	FlitHops                    uint64
	TotalLatency                uint64
	TotalHops                   uint64
}

// NewMesh builds a mesh; it panics on invalid configuration (wiring bug).
func NewMesh[P any](cfg MeshConfig) *Mesh[P] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Width * cfg.Height
	slots := NumDirs * cfg.VCs
	m := &Mesh[P]{
		cfg:       cfg,
		slots:     slots,
		stride:    [NumDirs]int{North: cfg.Width, East: 1, South: -cfg.Width, West: -1},
		vcs:       make([]vcState[P], n*slots),
		owner:     make([]bool, n*slots),
		injectQ:   make([]sim.Queue[Message[P]], n),
		ejectQ:    make([]sim.Queue[Message[P]], n),
		busy:      sim.NewBitSet(n * slots),
		staged:    sim.NewBitSet(n),
		delivered: sim.NewBitSet(n),
	}
	// One backing array for every flit buffer, so no VC allocates the
	// first time traffic reaches it.
	depth := cfg.VCDepth
	if depth < maxMessageFlits {
		depth = maxMessageFlits
	}
	flits := make([]flit, len(m.vcs)*depth)
	for i := range m.vcs {
		m.vcs[i].buf = flits[i*depth : i*depth : (i+1)*depth]
	}
	return m
}

func (m *Mesh[P]) node(c Coord) int { return c.Y*m.cfg.Width + c.X }

// InBounds reports whether c is a valid node.
func (m *Mesh[P]) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

// Inject queues msg for injection at its source node. It returns false
// when the source-local injection staging is saturated (more than VCDepth
// messages waiting), modeling finite injection bandwidth.
func (m *Mesh[P]) Inject(msg Message[P], now sim.Cycle) bool {
	if !m.InBounds(msg.Src) || !m.InBounds(msg.Dst) {
		panic(fmt.Sprintf("noc: inject out of bounds: %v -> %v", msg.Src, msg.Dst))
	}
	if msg.Flits <= 0 {
		msg.Flits = 1
	}
	n := m.node(msg.Src)
	if m.injectQ[n].Len() >= m.cfg.VCDepth {
		return false
	}
	msg.Injected = now
	m.injectQ[n].Push(msg)
	m.staged.Set(n)
	m.MsgsInjected++
	return true
}

// EjectOne pops a single delivered message at node c, if any. The
// queue's ring storage is reused, so draining allocates nothing.
func (m *Mesh[P]) EjectOne(c Coord) (Message[P], bool) {
	n := m.node(c)
	msg, ok := m.ejectQ[n].Pop()
	if ok {
		m.ejected--
		if m.ejectQ[n].Len() == 0 {
			m.delivered.Clear(n)
		}
	}
	return msg, ok
}

// NextDelivery returns the lowest node index (y*Width+x) at or above
// from that holds a delivered message awaiting EjectOne, or -1. The
// owner walks it instead of polling every node:
//
//	for n := m.NextDelivery(0); n >= 0; n = m.NextDelivery(n + 1)
func (m *Mesh[P]) NextDelivery(from int) int { return m.delivered.Next(from) }

// move is a flit transfer staged during the allocation pass and applied
// afterwards, giving single-cycle-per-hop semantics without order
// dependence between routers. The flit is the head of slot from when
// the move is applied: a VC is granted at most once per cycle and
// arrivals join at the back.
type move struct {
	node int // router the flit leaves
	from int // its input VC slot
	to   int // downstream input VC slot; -1 for ejection
}

// Step advances the mesh by one cycle.
func (m *Mesh[P]) Step(now sim.Cycle) {
	vcs := m.cfg.VCs
	// Stage injections: convert one message per node per cycle into flits
	// on a free Local input VC.
	for n := m.staged.Next(0); n >= 0; n = m.staged.Next(n + 1) {
		local := n*m.slots + int(Local)*vcs
		for g := local; g < local+vcs; g++ {
			st := &m.vcs[g]
			if len(st.buf) != 0 || st.routed {
				continue
			}
			st.msg, _ = m.injectQ[n].Pop()
			if m.injectQ[n].Len() == 0 {
				m.staged.Clear(n)
			}
			for i := 0; i < st.msg.Flits; i++ {
				st.buf = append(st.buf, flit{head: i == 0, tail: i == st.msg.Flits-1})
			}
			m.busy.Set(g)
			break
		}
	}

	// Allocation pass: each router that holds a flit picks at most one
	// flit per output direction, reading only current buffer state.
	// Routers are visited in ascending index and a router's non-empty
	// input VCs in rotation order from rr, wrapping; g is always the
	// router's lowest busy slot.
	moves := m.moves[:0]
	for g := m.busy.Next(0); g >= 0; {
		node := g / m.slots
		pivot, end := node*m.slots+m.rr, (node+1)*m.slots
		var taken [NumDirs]bool // output ports granted this cycle
		for s := m.busy.Next(pivot); s >= 0 && s < end; s = m.busy.Next(s + 1) {
			moves = m.arbitrate(moves, node, s, &taken)
		}
		for s := g; s >= 0 && s < pivot; s = m.busy.Next(s + 1) {
			moves = m.arbitrate(moves, node, s, &taken)
		}
		g = m.busy.Next(end)
	}
	m.rr = (m.rr + 1) % m.slots

	// Apply pass.
	for _, mv := range moves {
		src := &m.vcs[mv.from]
		f := src.buf[0]
		copy(src.buf, src.buf[1:])
		src.buf = src.buf[:len(src.buf)-1]
		if len(src.buf) == 0 {
			m.busy.Clear(mv.from)
		}
		m.FlitHops++
		if mv.to < 0 {
			// Ejection.
			if f.tail {
				msg := src.msg
				msg.Delivered = now
				m.MsgsDelivered++
				m.TotalLatency += uint64(now - msg.Injected)
				m.TotalHops += uint64(Manhattan(msg.Src, msg.Dst))
				m.ejectQ[mv.node].Push(msg)
				m.delivered.Set(mv.node)
				m.ejected++
			}
		} else {
			dst := &m.vcs[mv.to]
			if f.head {
				dst.msg = src.msg
			}
			dst.buf = append(dst.buf, f)
			m.busy.Set(mv.to)
		}
		if f.tail {
			// Tail passed: release the wormhole reservations.
			if src.outDir != Local {
				m.owner[mv.node*m.slots+int(src.outDir)*vcs+src.outVC] = false
			}
			src.routed = false
			src.outVC = 0
			src.outDir = 0
		}
	}
	m.moves = moves[:0]
}

// arbitrate runs route computation, VC allocation and switch allocation
// for the head-of-line flit of busy slot g at router node, and stages
// its move when it wins an output port.
func (m *Mesh[P]) arbitrate(moves []move, node, g int, taken *[NumDirs]bool) []move {
	vcs := m.cfg.VCs
	st := &m.vcs[g]
	f := st.buf[0]
	// Route computation on head flit.
	if f.head && !st.routed {
		st.outDir = XYRoute(Coord{node % m.cfg.Width, node / m.cfg.Width}, st.msg.Dst)
		st.outVC = -1
		st.routed = true
	}
	if !st.routed {
		return moves // body flit of a stream whose head is gone: impossible, but safe
	}
	out := st.outDir
	if taken[out] {
		return moves // output port already granted this cycle
	}
	if out == Local {
		// Ejection consumes the flit immediately (guaranteed
		// consumption keeps the network deadlock-free).
		taken[out] = true
		return append(moves, move{node: node, from: g, to: -1})
	}
	// First input VC of the facing port at the downstream router.
	next := (node+m.stride[out])*m.slots + int(out.Opposite())*vcs
	// Virtual-channel allocation on head flits.
	if st.outVC < 0 {
		own := node*m.slots + int(out)*vcs
		for vc := 0; vc < vcs; vc++ {
			if d := &m.vcs[next+vc]; !m.owner[own+vc] && len(d.buf) == 0 && !d.routed {
				st.outVC = vc
				m.owner[own+vc] = true
				break
			}
		}
		if st.outVC < 0 {
			return moves // no VC available this cycle
		}
	}
	// Buffer space check (credit-equivalent, conservative: flits
	// leaving downstream this cycle do not free space until next).
	to := next + st.outVC
	if len(m.vcs[to].buf) >= m.cfg.VCDepth {
		return moves
	}
	taken[out] = true
	return append(moves, move{node: node, from: g, to: to})
}

// Quiet reports whether the mesh holds no traffic at all: nothing
// staged for injection, no flit buffered in any router, and no ejected
// message awaiting pickup. A Quiet mesh's Step is a no-op except for
// the round-robin pointer rotation, which SkipIdle replays.
func (m *Mesh[P]) Quiet() bool {
	return m.InFlight() == 0 && m.ejected == 0
}

// SkipIdle advances the round-robin pointer by delta cycles, exactly
// what delta no-op Steps of a Quiet mesh would have done. The owner of
// the mesh calls it when it fast-forwards the clock.
func (m *Mesh[P]) SkipIdle(delta uint64) {
	m.rr = (m.rr + int(delta%uint64(m.slots))) % m.slots
}

// InFlight returns the number of injected-but-undelivered messages.
func (m *Mesh[P]) InFlight() int {
	return int(m.MsgsInjected - m.MsgsDelivered)
}

// NumLinks returns the number of unidirectional inter-router links, the
// quantity the paper compares against its specialized topologies.
func (m *Mesh[P]) NumLinks() int {
	w, h := m.cfg.Width, m.cfg.Height
	return 2 * (w*(h-1) + h*(w-1))
}
