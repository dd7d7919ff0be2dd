// Package mem defines the memory-system vocabulary shared by every level
// of the simulated hierarchy: physical addresses, requests and responses,
// bounded two-phase channels used as inter-level ports, and the main-memory
// model of Table I (200-cycle first chunk, 4 cycles per further 16-byte
// chunk).
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Addr is a physical byte address.
type Addr uint64

// Line returns the block-frame address of a for blockBytes-sized blocks
// (the address with the offset bits cleared).
func (a Addr) Line(blockBytes int) Addr {
	return a &^ Addr(blockBytes-1)
}

// Kind discriminates memory request types.
type Kind uint8

const (
	// Read is a demand load (or an instruction fetch; the paper's memory
	// figures are dominated by the data side, and the modeled front end
	// uses a perfect instruction cache as SimpleScalar's sim-outorder
	// commonly configures for data-hierarchy studies).
	Read Kind = iota
	// Write is a demand store.
	Write
	// Writeback carries an evicted dirty block downwards.
	Writeback
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Req is a request traveling down the hierarchy. Req and Resp travel by
// value: a channel or queue slot holds the message itself, so sending one
// allocates nothing and nobody holds a message past its Pop.
type Req struct {
	ID     uint64
	Addr   Addr
	Kind   Kind
	Issued sim.Cycle
}

// Resp is a completion traveling up the hierarchy. Done is the cycle at
// which the data became available to the requester.
type Resp struct {
	ID   uint64
	Addr Addr
	Done sim.Cycle
}

// IDSource hands out unique request IDs.
type IDSource struct{ next uint64 }

// Next returns a fresh non-zero ID.
func (s *IDSource) Next() uint64 {
	s.next++
	return s.next
}

// Chan is a bounded single-producer/single-consumer queue with two-phase
// semantics: values pushed during a cycle become visible to the consumer
// only after Tick (i.e. the next cycle), and the producer's CanPush view is
// based on the occupancy latched at the start of the cycle, so behaviour
// never depends on component evaluation order. A channel between two
// components wakes the consumer when Tick publishes and the producer when
// Pop frees space, so a sleeping end is evaluated again (sim.Wired).
//
// The items live in a power-of-two ring between three absolute indices:
// [head, vis) is visible to the consumer and [vis, tail) is staged. Pop
// advances head, Tick moves vis to tail, and nothing else moves an item
// but Remove. A ring of at least capacity slots never overflows: the
// visible items are at most the latched occupancy, which CanPush adds to
// the staged count.
type Chan[T any] struct {
	buf             []T
	mask            uint64
	head, vis, tail uint64
	latched         int // occupancy at the last Tick; pops free no space until the next
	capacity        int

	consumer, producer sim.Waker
}

// NewChan returns a channel holding at most capacity items.
func NewChan[T any](capacity int) *Chan[T] {
	if capacity <= 0 {
		capacity = 1
	}
	ring := 1
	for ring < capacity {
		ring <<= 1
	}
	// The ring is bounded by capacity; allocating it here keeps Push and
	// Tick from growing it at a later high-water mark.
	return &Chan[T]{buf: make([]T, ring), mask: uint64(ring - 1), capacity: capacity}
}

// CanPush reports whether a push this cycle is guaranteed to fit. It is
// deliberately conservative: items popped this cycle do not free space
// until the next cycle, mirroring registered-FIFO hardware.
func (c *Chan[T]) CanPush() bool {
	return c.latched+int(c.tail-c.vis) < c.capacity
}

// Push stages v for delivery next cycle. It panics when called without a
// successful CanPush, which would model a dropped message.
func (c *Chan[T]) Push(v T) {
	if !c.CanPush() {
		panic("mem: Chan overflow — caller must check CanPush")
	}
	c.buf[c.tail&c.mask] = v
	c.tail++
}

// Len returns the number of items currently visible to the consumer.
func (c *Chan[T]) Len() int { return int(c.vis - c.head) }

// Peek returns the oldest visible item without removing it.
func (c *Chan[T]) Peek() (T, bool) {
	if c.head == c.vis {
		var zero T
		return zero, false
	}
	return c.buf[c.head&c.mask], true
}

// Pop removes and returns the oldest visible item.
func (c *Chan[T]) Pop() (T, bool) {
	if c.head == c.vis {
		var zero T
		return zero, false
	}
	v := c.buf[c.head&c.mask]
	c.head++
	c.producer.Wake()
	return v, true
}

// Contains reports whether a visible item matches.
func (c *Chan[T]) Contains(match func(T) bool) bool {
	for i := c.head; i != c.vis; i++ {
		if match(c.buf[i&c.mask]) {
			return true
		}
	}
	return false
}

// Remove extracts the oldest visible item that matches. Every younger
// item, staged ones included, moves up one slot; like a pop, the removal
// frees no space until the next Tick.
func (c *Chan[T]) Remove(match func(T) bool) (T, bool) {
	for i := c.head; i != c.vis; i++ {
		v := c.buf[i&c.mask]
		if !match(v) {
			continue
		}
		for ; i+1 != c.tail; i++ {
			c.buf[i&c.mask] = c.buf[(i+1)&c.mask]
		}
		c.vis--
		c.tail--
		c.producer.Wake()
		return v, true
	}
	var zero T
	return zero, false
}

// Tick publishes staged pushes. Call exactly once per cycle from the
// owning component's Commit.
func (c *Chan[T]) Tick() {
	if c.vis != c.tail {
		c.vis = c.tail
		c.consumer.Wake()
	}
	c.latched = int(c.vis - c.head)
}

// Capacity returns the channel bound.
func (c *Chan[T]) Capacity() int { return c.capacity }

// Snapshot returns copies of every item in the channel, visible and
// staged, oldest first. Intended for invariant-checking tests.
func (c *Chan[T]) Snapshot() []T {
	out := make([]T, 0, c.tail-c.head)
	for i := c.head; i != c.tail; i++ {
		out = append(out, c.buf[i&c.mask])
	}
	return out
}

// Port bundles the two directions of a hierarchy link: requests flow down,
// responses flow up. The component on each side Ticks its outbound channel.
type Port struct {
	// Down carries requests from the upper level to the lower level.
	Down *Chan[Req]
	// Up carries responses from the lower level to the upper level.
	Up *Chan[Resp]
}

// NewPort creates a port with the given queue depths.
func NewPort(downCap, upCap int) *Port {
	return &Port{Down: NewChan[Req](downCap), Up: NewChan[Resp](upCap)}
}

// WireAbove attaches the component above the port, which pushes Down and
// pops Up, to both channels' wakers.
func (p *Port) WireAbove(w sim.Waker) {
	p.Down.producer = w
	p.Up.consumer = w
}

// WireBelow attaches the component below the port, which pops Down and
// pushes Up.
func (p *Port) WireBelow(w sim.Waker) {
	p.Down.consumer = w
	p.Up.producer = w
}

// MainMemoryConfig parameterizes the DRAM model (Table I).
type MainMemoryConfig struct {
	// FirstChunkCycles is the latency until the first 16-byte chunk
	// arrives (200 in Table I).
	FirstChunkCycles uint64
	// InterChunkCycles separates subsequent chunks (4 in Table I).
	InterChunkCycles uint64
	// ChunkBytes is the width of the memory wires (16 B in Table I).
	ChunkBytes int
	// BlockBytes is the size of the block the LLC requests (128 B).
	BlockBytes int
}

// DefaultMainMemoryConfig returns the Table I memory parameters.
func DefaultMainMemoryConfig() MainMemoryConfig {
	return MainMemoryConfig{
		FirstChunkCycles: 200,
		InterChunkCycles: 4,
		ChunkBytes:       16,
		BlockBytes:       128,
	}
}

// TransferCycles returns the total cycles needed to deliver a full block
// after the access starts.
func (c MainMemoryConfig) TransferCycles() uint64 {
	chunks := uint64((c.BlockBytes + c.ChunkBytes - 1) / c.ChunkBytes)
	if chunks == 0 {
		chunks = 1
	}
	return c.FirstChunkCycles + (chunks-1)*c.InterChunkCycles
}

// BusOccupancyCycles returns how long the memory wires are busy per block,
// which limits back-to-back block transfers.
func (c MainMemoryConfig) BusOccupancyCycles() uint64 {
	chunks := uint64((c.BlockBytes + c.ChunkBytes - 1) / c.ChunkBytes)
	if chunks == 0 {
		chunks = 1
	}
	return chunks * c.InterChunkCycles
}

// MainMemory services block fetches from the last-level cache. It is the
// bottom of every hierarchy. Writebacks are absorbed (they consume bus
// occupancy but produce no response).
type MainMemory struct {
	name string
	cfg  MainMemoryConfig
	port *Port

	busFreeAt sim.Cycle
	inFlight  sim.Queue[pendingResp]

	sim.Activity

	// Stats
	Reads, Writebacks uint64
}

type pendingResp struct {
	req  Req
	done sim.Cycle
}

// NewMainMemory creates the DRAM model attached to port (the model owns
// Down-pops and Up-pushes; the LLC owns the opposite directions).
func NewMainMemory(name string, cfg MainMemoryConfig, port *Port) *MainMemory {
	return &MainMemory{name: name, cfg: cfg, port: port}
}

// Name implements sim.Component.
func (m *MainMemory) Name() string { return m.name }

// Eval implements sim.Component.
func (m *MainMemory) Eval(k *sim.Kernel) {
	now := k.Cycle()
	m.Begin()
	// Accept at most one new transfer per cycle, gated by wire occupancy.
	if m.port.Down.Len() > 0 && m.busFreeAt > now {
		m.WakeAt(m.busFreeAt)
	} else if req, ok := m.port.Down.Peek(); ok {
		m.Acted()
		m.port.Down.Pop()
		m.busFreeAt = now + m.cfg.BusOccupancyCycles()
		switch req.Kind {
		case Writeback:
			m.Writebacks++
			// No response for writebacks.
		default:
			m.Reads++
			m.inFlight.Push(pendingResp{
				req:  req,
				done: now + m.cfg.TransferCycles(),
			})
		}
	}
	// Deliver matured responses in arrival order, as channel space allows.
	for m.inFlight.Len() > 0 && m.inFlight.Front().done <= now && m.port.Up.CanPush() {
		m.Acted()
		p, _ := m.inFlight.Pop()
		m.port.Up.Push(Resp{ID: p.req.ID, Addr: p.req.Addr, Done: now})
	}
	if m.inFlight.Len() > 0 && m.inFlight.Front().done > now {
		m.WakeAt(m.inFlight.Front().done)
	}
}

// Commit implements sim.Component.
func (m *MainMemory) Commit(k *sim.Kernel) {
	m.port.Up.Tick()
}

// Wire implements sim.Wired.
func (m *MainMemory) Wire(w sim.Waker) { m.port.WireBelow(w) }

// Pending returns the number of fetches in flight (for tests).
func (m *MainMemory) Pending() int { return m.inFlight.Len() }
