// Package nocpower is the event-based router/link energy and area model
// standing in for Orion (paper Section IV). Network energy is counted as
// events (buffer writes/reads, crossbar traversals, link traversals) times
// per-event costs, which is exactly how the paper uses Orion.
package nocpower

// Per-bit energy coefficients at 32 nm (pJ/bit). Values are in the range
// published for Orion-class models at this node; the network term is a
// small additive contribution to total energy in every paper figure, so
// relative fidelity is what matters.
const (
	BufferWritePJPerBit = 0.0045
	BufferReadPJPerBit  = 0.0035
	CrossbarPJPerBit    = 0.0060
	LinkPJPerBitPerMM   = 0.0200
	// ArbiterPJPerEvent covers switch-allocation logic per traversal.
	ArbiterPJPerEvent = 0.08
)

// Area coefficients.
const (
	// BufferAreaUM2PerBit is flip-flop register area per stored bit,
	// including the surrounding control (standard-cell DFFs at 32 nm).
	BufferAreaUM2PerBit = 4.2
	// CrossbarAreaUM2PerCrosspointBit is matrix crossbar area per
	// crosspoint per bit, including drivers.
	CrossbarAreaUM2PerCrosspointBit = 1.4
	// LinkAreaUM2PerBitPerMM accounts for repeaters; wires themselves
	// ride above the arrays on upper metal (the on-chip wire density
	// argument of Section III.A).
	LinkAreaUM2PerBitPerMM = 0.18
)

// LinkSpec describes one unidirectional link for energy purposes.
type LinkSpec struct {
	Bits     int
	LengthMM float64
}

// TraversalPJ returns the energy of moving one message across the link:
// upstream buffer read, wire traversal, downstream buffer write, and the
// arbiter.
func (l LinkSpec) TraversalPJ() float64 {
	b := float64(l.Bits)
	return b*(BufferReadPJPerBit+BufferWritePJPerBit) +
		b*LinkPJPerBitPerMM*l.LengthMM +
		ArbiterPJPerEvent
}

// RouterSpec describes one router/tile-switch for area purposes.
type RouterSpec struct {
	// InLinks and OutLinks count unidirectional connections.
	InLinks, OutLinks int
	// BufferEntries is the total number of message buffer slots.
	BufferEntries int
	// Bits is the message width.
	Bits int
	// CrossbarIn and CrossbarOut size the switch.
	CrossbarIn, CrossbarOut int
	// AvgLinkMM is the per-link repeater span charged to this router.
	AvgLinkMM float64
}

// AreaMM2 returns the router's silicon area.
func (r RouterSpec) AreaMM2() float64 {
	buf := float64(r.BufferEntries*r.Bits) * BufferAreaUM2PerBit
	xbar := float64(r.CrossbarIn*r.CrossbarOut*r.Bits) * CrossbarAreaUM2PerCrosspointBit
	links := float64((r.InLinks+r.OutLinks)*r.Bits) * LinkAreaUM2PerBitPerMM * r.AvgLinkMM
	return (buf + xbar + links) * 1e-6
}

// LeakageMW returns the router's static power, dominated by its buffers.
func (r RouterSpec) LeakageMW() float64 {
	// Register leakage ~ 0.9 uW per stored byte at 32 nm HP.
	return 0.0009 * float64(r.BufferEntries*r.Bits) / 8
}

// Tally accumulates network events and converts them to energy.
type Tally struct {
	BufferWrites, BufferReads uint64
	LinkTraversals            uint64
	CrossbarTraversals        uint64

	// Per-event sizes for the conversion.
	Bits   int
	LinkMM float64
}

// NewTally creates an event tally for messages of the given width crossing
// links of the given length.
func NewTally(bits int, linkMM float64) *Tally {
	return &Tally{Bits: bits, LinkMM: linkMM}
}

// AddHop records one message moving one hop (buffer read, crossbar, link,
// buffer write).
func (t *Tally) AddHop() {
	t.BufferReads++
	t.CrossbarTraversals++
	t.LinkTraversals++
	t.BufferWrites++
}

// AddHops records n hops at once.
func (t *Tally) AddHops(n uint64) {
	t.BufferReads += n
	t.CrossbarTraversals += n
	t.LinkTraversals += n
	t.BufferWrites += n
}

// EnergyPJ converts the tally to picojoules.
func (t *Tally) EnergyPJ() float64 {
	b := float64(t.Bits)
	return float64(t.BufferWrites)*b*BufferWritePJPerBit +
		float64(t.BufferReads)*b*BufferReadPJPerBit +
		float64(t.CrossbarTraversals)*(b*CrossbarPJPerBit+ArbiterPJPerEvent) +
		float64(t.LinkTraversals)*b*LinkPJPerBitPerMM*t.LinkMM
}

// Merge adds other's events into t.
func (t *Tally) Merge(other *Tally) {
	t.BufferWrites += other.BufferWrites
	t.BufferReads += other.BufferReads
	t.LinkTraversals += other.LinkTraversals
	t.CrossbarTraversals += other.CrossbarTraversals
}
