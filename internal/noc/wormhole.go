package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Message is a multi-flit packet traveling through a wormhole mesh,
// carrying a payload of its owner's type P. Messages are values: Inject
// copies one into a slot of the mesh's message pool, where it stays while
// its flits move from router to router, and EjectOne copies it out and
// frees the slot, so a message costs no allocation.
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

// vcState is an input virtual channel. A VC is reserved from head to
// tail, so it buffers flits of one message at a time, and wormhole flow
// control keeps them in order: the VC holds flits first..first+n-1 of the
// message with handle msg, which has flits flits. Its front flit is the
// head when first == 0 and the tail when first == flits-1.
type vcState struct {
	msg   int32 // pool handle of the message the buffered flits belong to
	n     int32 // flits buffered
	first int32 // index in its message of the front flit
	flits int32 // the message's flit count
	// routed is set once the head flit has picked an output.
	routed bool
	outDir Dir
	outVC  int32
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
// s = dir*VCs + vc of that router, stored at node*slots + s. Each router
// keeps its busy slots as bits in words of its own, and a set names the
// routers with any, so a Step costs in proportion to the flits and
// messages that exist, not to the size of the mesh.
type Mesh[P any] struct {
	cfg    MeshConfig
	nodes  int          // routers: Width*Height
	slots  int          // input VCs per router: NumDirs*VCs
	words  int          // busy words per router: (slots+63)/64
	stride [NumDirs]int // node index offset of the neighbour in each direction
	// facing[d] is the first input slot, at the neighbour in direction
	// d, of the port that faces back across the link.
	facing [NumDirs]int
	// route[node*nodes+dst] is the XY output port at node for a message
	// bound for dst (nodes² bytes), so routing divides and compares
	// nothing.
	route []Dir

	vcs []vcState
	// owner[node*slots+dir*VCs+vc] is set while output VC vc of port dir
	// is reserved by a message (from head until tail, the wormhole
	// invariant).
	owner []bool

	// msgs is the message pool. A message occupies one slot from Inject
	// to EjectOne, and the queues and VCs carry its index, its handle;
	// free lists the unused slots. The pool is built for every VC plus
	// every node's injection staging, which bounds the messages an owner
	// that picks up its deliveries every cycle can have live; it grows
	// only when deliveries are left waiting.
	msgs []Message[P]
	free []int32
	// dest[h] is the destination node of message h, so routing reads 4
	// bytes instead of the message.
	dest []int32
	// injectQ holds messages not yet converted to flits, per node;
	// ejectQ holds delivered messages awaiting pickup by the local node.
	injectQ, ejectQ []sim.Queue[int32]

	// Activity, maintained wherever a buffer or queue changes between
	// empty and non-empty. Bit s of busy[node*words+s/64] is set while
	// slot s of the router holds a flit; busyN counts a router's set bits
	// and routers holds the routers where that count is non-zero.
	busy      []uint64
	busyN     []int32
	routers   sim.BitSet
	staged    sim.BitSet // nodes whose injectQ is non-empty
	delivered sim.BitSet // nodes whose ejectQ is non-empty

	// hi and lo are per-Step masks over a router's busy words: the slots
	// at or above the cycle's rotation slot (see Step), and those below it.
	hi, lo []uint64

	// moves is per-Step scratch, hoisted out of the cycle loop so
	// steady-state stepping allocates nothing.
	moves []move

	// ejected counts messages delivered but not yet picked up, so Quiet
	// is O(1).
	ejected int

	// Stats
	MsgsInjected, MsgsDelivered uint64
	FlitHops                    uint64
}

// NewMesh builds a mesh; it panics on invalid configuration (wiring bug).
func NewMesh[P any](cfg MeshConfig) *Mesh[P] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Width * cfg.Height
	slots := NumDirs * cfg.VCs
	words := (slots + 63) / 64
	pool := n*slots + n*cfg.VCDepth
	m := &Mesh[P]{
		cfg:       cfg,
		nodes:     n,
		slots:     slots,
		words:     words,
		stride:    [NumDirs]int{North: cfg.Width, East: 1, South: -cfg.Width, West: -1},
		route:     make([]Dir, n*n),
		vcs:       make([]vcState, n*slots),
		owner:     make([]bool, n*slots),
		msgs:      make([]Message[P], pool),
		free:      make([]int32, pool),
		dest:      make([]int32, pool),
		injectQ:   make([]sim.Queue[int32], n),
		ejectQ:    make([]sim.Queue[int32], n),
		busy:      make([]uint64, n*words),
		busyN:     make([]int32, n),
		routers:   sim.NewBitSet(n),
		staged:    sim.NewBitSet(n),
		delivered: sim.NewBitSet(n),
		hi:        make([]uint64, words),
		lo:        make([]uint64, words),
	}
	for d := Dir(0); d < NumDirs; d++ {
		m.facing[d] = int(d.Opposite()) * cfg.VCs
	}
	for i := range m.route {
		at, dst := i/n, i%n
		m.route[i] = XYRoute(Coord{at % cfg.Width, at / cfg.Width}, Coord{dst % cfg.Width, dst / cfg.Width})
	}
	for i := range m.free {
		m.free[i] = int32(pool - 1 - i) // handle 0 is taken first
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
	n := m.node(msg.Src)
	if m.injectQ[n].Len() >= m.cfg.VCDepth {
		return false
	}
	var h int32
	if last := len(m.free) - 1; last >= 0 {
		h = m.free[last]
		m.free = m.free[:last]
	} else {
		h = int32(len(m.msgs))
		m.msgs = append(m.msgs, Message[P]{})
		m.dest = append(m.dest, 0)
	}
	p := &m.msgs[h]
	*p = msg
	if p.Flits <= 0 {
		p.Flits = 1
	}
	p.Injected = now
	m.dest[h] = int32(m.node(msg.Dst))
	m.injectQ[n].Push(h)
	m.staged.Set(n)
	m.MsgsInjected++
	return true
}

// EjectOne pops a single delivered message at node c, if any, and frees
// its pool slot. The queue's ring storage is reused, so draining
// allocates nothing.
func (m *Mesh[P]) EjectOne(c Coord) (Message[P], bool) {
	n := m.node(c)
	h, ok := m.ejectQ[n].Pop()
	if !ok {
		return Message[P]{}, false
	}
	m.ejected--
	if m.ejectQ[n].Len() == 0 {
		m.delivered.Clear(n)
	}
	m.free = append(m.free, h)
	return m.msgs[h], true
}

// NextDelivery returns the lowest node index (y*Width+x) at or above
// from that holds a delivered message awaiting EjectOne, or -1. The
// owner walks it instead of polling every node:
//
//	for n := m.NextDelivery(0); n >= 0; n = m.NextDelivery(n + 1)
func (m *Mesh[P]) NextDelivery(from int) int { return m.delivered.Next(from) }

// move is a flit transfer staged during the allocation pass and applied
// afterwards, giving single-cycle-per-hop semantics without order
// dependence between routers. The flit is the front flit of input slot
// from of router node when the move is applied: a VC is granted at most
// once per cycle and arrivals join at the back.
type move struct {
	node, from int32 // router the flit leaves, and its input slot there
	next, to   int32 // downstream router and its input slot; to < 0 ejects
}

// setBusy and clearBusy record that input slot s of router node has
// become non-empty or empty.
func (m *Mesh[P]) setBusy(node, s int) {
	m.busy[node*m.words+s>>6] |= 1 << (uint(s) & 63)
	if m.busyN[node]++; m.busyN[node] == 1 {
		m.routers.Set(node)
	}
}

func (m *Mesh[P]) clearBusy(node, s int) {
	m.busy[node*m.words+s>>6] &^= 1 << (uint(s) & 63)
	if m.busyN[node]--; m.busyN[node] == 0 {
		m.routers.Clear(node)
	}
}

// Step advances the mesh by one cycle, cycle now.
func (m *Mesh[P]) Step(now sim.Cycle) {
	vcs := m.cfg.VCs
	// Stage injections: convert one message per node per cycle into flits
	// on a free Local input VC.
	local := int(Local) * vcs
	for n := m.staged.Next(0); n >= 0; n = m.staged.Next(n + 1) {
		base := n * m.slots
		for s := local; s < local+vcs; s++ {
			st := &m.vcs[base+s]
			if st.n != 0 || st.routed {
				continue
			}
			h, _ := m.injectQ[n].Pop()
			if m.injectQ[n].Len() == 0 {
				m.staged.Clear(n)
			}
			flits := int32(m.msgs[h].Flits)
			st.msg, st.n, st.first, st.flits = h, flits, 0, flits
			m.setBusy(n, s)
			break
		}
	}

	// Allocation pass: each router that holds a flit picks at most one
	// flit per output direction, reading only current buffer state.
	// Routers are visited in ascending index and a router's non-empty
	// input VCs in rotation order: the slots at or above rr ascending,
	// then those below it. rr turns one slot per cycle, for fairness.
	rr := int(now % sim.Cycle(m.slots))
	for w := range m.lo {
		below := rr - w<<6 // slots below rr in word w, clamped to 0..64
		if below < 0 {
			below = 0
		} else if below > 64 {
			below = 64
		}
		m.lo[w] = 1<<uint(below) - 1
		m.hi[w] = ^m.lo[w]
	}
	moves := m.moves[:0]
	for node := m.routers.Next(0); node >= 0; node = m.routers.Next(node + 1) {
		var taken [NumDirs]bool // output ports granted this cycle
		words := m.busy[node*m.words : (node+1)*m.words]
		for w, word := range words {
			for b := word & m.hi[w]; b != 0; b &= b - 1 {
				moves = m.arbitrate(moves, node, w<<6+bits.TrailingZeros64(b), &taken)
			}
		}
		for w, word := range words {
			for b := word & m.lo[w]; b != 0; b &= b - 1 {
				moves = m.arbitrate(moves, node, w<<6+bits.TrailingZeros64(b), &taken)
			}
		}
	}
	// Apply pass.
	for _, mv := range moves {
		node, from := int(mv.node), int(mv.from)
		src := &m.vcs[node*m.slots+from]
		h := src.msg
		head, tail := src.first == 0, src.first == src.flits-1
		src.first++
		if src.n--; src.n == 0 {
			m.clearBusy(node, from)
		}
		m.FlitHops++
		if mv.to < 0 {
			// Ejection.
			if tail {
				msg := &m.msgs[h]
				msg.Delivered = now
				m.MsgsDelivered++
				m.ejectQ[node].Push(h)
				m.delivered.Set(node)
				m.ejected++
			}
		} else {
			next, to := int(mv.next), int(mv.to)
			dst := &m.vcs[next*m.slots+to]
			if head {
				dst.msg, dst.first, dst.flits = h, 0, src.flits
			}
			if dst.n == 0 {
				m.setBusy(next, to)
			}
			dst.n++
		}
		if tail {
			// Tail passed: release the wormhole reservations.
			if src.outDir != Local {
				m.owner[node*m.slots+int(src.outDir)*vcs+int(src.outVC)] = false
			}
			src.routed = false
			src.outVC = 0
			src.outDir = 0
		}
	}
	m.moves = moves[:0]
}

// arbitrate runs route computation, VC allocation and switch allocation
// for the front flit of busy input slot s at router node, and stages its
// move when it wins an output port.
func (m *Mesh[P]) arbitrate(moves []move, node, s int, taken *[NumDirs]bool) []move {
	vcs := m.cfg.VCs
	st := &m.vcs[node*m.slots+s]
	// Route computation on head flit.
	if st.first == 0 && !st.routed {
		st.outDir = m.route[node*m.nodes+int(m.dest[st.msg])]
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
		return append(moves, move{node: int32(node), from: int32(s), to: -1})
	}
	next := node + m.stride[out]
	facing := next*m.slots + m.facing[out]
	// Virtual-channel allocation on head flits.
	if st.outVC < 0 {
		own := node*m.slots + int(out)*vcs
		for vc := 0; vc < vcs; vc++ {
			if d := &m.vcs[facing+vc]; !m.owner[own+vc] && d.n == 0 && !d.routed {
				st.outVC = int32(vc)
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
	if int(m.vcs[facing+int(st.outVC)].n) >= m.cfg.VCDepth {
		return moves
	}
	taken[out] = true
	return append(moves, move{node: int32(node), from: int32(s), next: int32(next), to: int32(m.facing[out]) + st.outVC})
}

// CheckInvariants verifies that the mesh's bookkeeping agrees with the
// state it summarises: the busy words, counts and router set with the
// VCs that hold flits; the staged and delivered sets with the queues;
// every pool slot is free, staged, in the network or delivered, exactly
// one of them, and a held message's cached destination is its own; the
// output-VC reservations with the routed VCs; and the ejected count
// with the eject queues. Tests call it between cycles.
func (m *Mesh[P]) CheckInvariants() error {
	const (
		unseen byte = iota
		isFree
		isStaged
		inNetwork
		isDelivered
	)
	where := [...]string{"unaccounted", "free", "staged", "in the network", "delivered"}
	state := make([]byte, len(m.msgs))
	claim := func(h int32, s byte) error {
		if h < 0 || int(h) >= len(state) {
			return fmt.Errorf("noc: handle %d outside the pool of %d", h, len(state))
		}
		if state[h] != unseen && (s != inNetwork || state[h] != inNetwork) {
			return fmt.Errorf("noc: message handle %d is both %s and %s", h, where[state[h]], where[s])
		}
		state[h] = s
		return nil
	}
	reserved := make([]bool, len(m.owner))
	ejected, staged := 0, 0
	for node := 0; node < m.nodes; node++ {
		if m.staged.Has(node) != (m.injectQ[node].Len() > 0) {
			return fmt.Errorf("noc: node %d staged bit %v with %d staged messages", node, m.staged.Has(node), m.injectQ[node].Len())
		}
		if m.delivered.Has(node) != (m.ejectQ[node].Len() > 0) {
			return fmt.Errorf("noc: node %d delivered bit %v with %d undelivered messages", node, m.delivered.Has(node), m.ejectQ[node].Len())
		}
		for i := 0; i < m.injectQ[node].Len(); i++ {
			if err := claim(m.injectQ[node].At(i), isStaged); err != nil {
				return err
			}
		}
		for i := 0; i < m.ejectQ[node].Len(); i++ {
			if err := claim(m.ejectQ[node].At(i), isDelivered); err != nil {
				return err
			}
		}
		staged += m.injectQ[node].Len()
		ejected += m.ejectQ[node].Len()
		count := 0
		for s := 0; s < m.words*64; s++ {
			bit := m.busy[node*m.words+s>>6]&(1<<(uint(s)&63)) != 0
			if s >= m.slots {
				if bit {
					return fmt.Errorf("noc: node %d busy bit %d beyond its %d slots", node, s, m.slots)
				}
				continue
			}
			st := &m.vcs[node*m.slots+s]
			if bit != (st.n > 0) {
				return fmt.Errorf("noc: node %d slot %d busy bit %v with %d flits", node, s, bit, st.n)
			}
			if st.n < 0 || st.n > 0 && (st.first < 0 || st.first+st.n > st.flits) {
				return fmt.Errorf("noc: node %d slot %d holds flits %d..%d of a %d-flit message", node, s, st.first, st.first+st.n-1, st.flits)
			}
			if st.n > 0 {
				count++
				if err := claim(st.msg, inNetwork); err != nil {
					return err
				}
			}
			if st.routed && st.outDir != Local && st.outVC >= 0 {
				g := node*m.slots + int(st.outDir)*m.cfg.VCs + int(st.outVC)
				if reserved[g] {
					return fmt.Errorf("noc: node %d output %v vc %d reserved twice", node, st.outDir, st.outVC)
				}
				reserved[g] = true
			}
		}
		if int(m.busyN[node]) != count || m.routers.Has(node) != (count > 0) {
			return fmt.Errorf("noc: node %d busy count %d and router bit %v with %d busy slots",
				node, m.busyN[node], m.routers.Has(node), count)
		}
	}
	for g, own := range m.owner {
		if own != reserved[g] {
			return fmt.Errorf("noc: output VC %d owner bit %v, reserved by a routed VC %v", g, own, reserved[g])
		}
	}
	for _, h := range m.free {
		if err := claim(h, isFree); err != nil {
			return err
		}
	}
	inNet := 0
	for h, s := range state {
		switch s {
		case unseen:
			return fmt.Errorf("noc: message handle %d is neither free nor held", h)
		case inNetwork:
			inNet++
		}
		if s != isFree && int(m.dest[h]) != m.node(m.msgs[h].Dst) {
			return fmt.Errorf("noc: message handle %d routes to node %d, its destination is %v", h, m.dest[h], m.msgs[h].Dst)
		}
	}
	if staged+inNet != m.InFlight() {
		return fmt.Errorf("noc: %d staged and %d in-network messages, %d in flight", staged, inNet, m.InFlight())
	}
	if m.ejected != ejected {
		return fmt.Errorf("noc: ejected count %d, eject queues hold %d", m.ejected, ejected)
	}
	return nil
}

// Quiet reports whether the mesh holds no traffic at all: nothing
// staged for injection, no flit buffered in any router, and no ejected
// message awaiting pickup. A Quiet mesh's Step is a no-op: its
// switch-allocation rotation is a function of the cycle.
func (m *Mesh[P]) Quiet() bool {
	return m.InFlight() == 0 && m.ejected == 0
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
