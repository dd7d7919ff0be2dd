package lnuca

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// blockMsg is a cache block traveling on the Replacement network.
type blockMsg struct {
	line  mem.Addr
	dirty bool
}

// transMsg is a hit block traveling on the Transport network toward the
// r-tile, carrying the bookkeeping the statistics need.
type transMsg struct {
	blk      blockMsg
	hitCycle sim.Cycle
	minHops  int
}

// searchMsg is a miss request on the Search network. Messages are
// headerless in hardware (Section III.B); line and the launch cycle are
// what the model needs, isRead tags the request for Table III accounting.
type searchMsg struct {
	line   mem.Addr
	reqID  uint64
	isRead bool
	marked bool // contention-marked (Section III.C, transport back-pressure)
}

// linkRef is what a link knows of its place in the fabric: its index in
// Fabric.allD or allU, the tile it ends at (RTileID for the r-tile), and
// the fabric's set of links of its kind whose next tick is not the
// identity. Every send, pop and remove enters the link there, so
// Fabric.Commit ticks only those.
type linkRef struct {
	id, dst int
	touched sim.BitSet
}

func (r *linkRef) touch() { r.touched.Set(r.id) }

// link is one unidirectional fabric link: a two-phase buffer whose
// used flag enforces one message per link per cycle. A Transport link
// (dlink) is the two-entry store-and-forward buffer with On/Off
// back-pressure of Section III.B; the entries of a Replacement link
// (ulink) carry address comparators (Section III.C), so the Search
// operation can find and extract in-transit blocks, which is what
// prevents false misses.
type link[T any] struct {
	linkRef
	ch   *mem.Chan[T]
	used bool
}

type (
	dlink = link[transMsg]
	ulink = link[blockMsg]
)

func newLink[T any](depth int, ref linkRef) *link[T] {
	return &link[T]{linkRef: ref, ch: mem.NewChan[T](depth)}
}

// on reports whether the link can accept a message this cycle (the On/Off
// back-pressure signal seen by the sender).
func (l *link[T]) on() bool { return !l.used && l.ch.CanPush() }

func (l *link[T]) send(m T) {
	l.ch.Push(m)
	l.used = true
	l.touch()
}

// pop removes the oldest visible message.
func (l *link[T]) pop() {
	l.ch.Pop()
	l.touch()
}

// remove extracts the oldest visible message that matches (on a
// Replacement link, the U-buffer comparator hit of the Search operation).
func (l *link[T]) remove(match func(T) bool) (T, bool) {
	m, ok := l.ch.Remove(match)
	if ok {
		l.touch()
	}
	return m, ok
}

func (l *link[T]) tick() {
	l.ch.Tick()
	l.used = false
}
