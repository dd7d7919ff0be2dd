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

// dlink is one unidirectional Transport link with its two-entry
// store-and-forward buffer and On/Off back-pressure (Section III.B). The
// used flag enforces one message per link per cycle.
type dlink struct {
	linkRef
	ch   *mem.Chan[transMsg]
	used bool
}

func newDLink(depth int, ref linkRef) *dlink {
	return &dlink{linkRef: ref, ch: mem.NewChan[transMsg](depth)}
}

// on reports whether the link can accept a message this cycle (the On/Off
// back-pressure signal seen by the sender).
func (l *dlink) on() bool { return !l.used && l.ch.CanPush() }

func (l *dlink) send(m transMsg) {
	l.ch.Push(m)
	l.used = true
	l.touch()
}

// pop removes the oldest visible message.
func (l *dlink) pop() {
	l.ch.Pop()
	l.touch()
}

func (l *dlink) tick() {
	l.ch.Tick()
	l.used = false
}

// ulink is one unidirectional Replacement link. Its buffer entries carry
// address comparators (Section III.C): the Search operation can find and
// extract in-transit blocks, which is what prevents false misses.
type ulink struct {
	linkRef
	items    []blockMsg
	staged   []blockMsg
	startLen int
	depth    int
	used     bool
}

func newULink(depth int, ref linkRef) *ulink {
	if depth <= 0 {
		depth = 1
	}
	return &ulink{linkRef: ref, depth: depth, items: make([]blockMsg, 0, depth), staged: make([]blockMsg, 0, depth)}
}

// on reports whether the link can accept a block this cycle.
func (l *ulink) on() bool {
	return !l.used && l.startLen+len(l.staged) < l.depth
}

func (l *ulink) send(b blockMsg) {
	if !l.on() {
		panic("lnuca: ulink overflow — caller must check on()")
	}
	//lnuca:allow(hotalloc) appends into capacity fixed at depth; on() bounds the length
	l.staged = append(l.staged, b)
	l.used = true
	l.touch()
}

// peek returns the oldest visible block without removing it.
func (l *ulink) peek() (blockMsg, bool) {
	if len(l.items) == 0 {
		return blockMsg{}, false
	}
	return l.items[0], true
}

// pop removes the oldest visible block. The shift keeps the (tiny)
// backing array reusable instead of leaking front capacity.
func (l *ulink) pop() (blockMsg, bool) {
	if len(l.items) == 0 {
		return blockMsg{}, false
	}
	b := l.items[0]
	copy(l.items, l.items[1:])
	l.items = l.items[:len(l.items)-1]
	l.touch()
	return b, true
}

// remove extracts the in-transit block for line, if present (the U-buffer
// comparator hit of the Search operation).
func (l *ulink) remove(line mem.Addr) (blockMsg, bool) {
	for i := range l.items {
		if l.items[i].line == line {
			b := l.items[i]
			//lnuca:allow(hotalloc) in-place filter into the slice's own backing array; no growth
			l.items = append(l.items[:i], l.items[i+1:]...)
			l.touch()
			return b, true
		}
	}
	return blockMsg{}, false
}

// contains reports whether line is in transit on this link.
func (l *ulink) contains(line mem.Addr) bool {
	for i := range l.items {
		if l.items[i].line == line {
			return true
		}
	}
	return false
}

func (l *ulink) len() int { return len(l.items) }

func (l *ulink) tick() {
	if len(l.staged) > 0 {
		//lnuca:allow(hotalloc) appends into capacity fixed at depth; on() bounded what was staged
		l.items = append(l.items, l.staged...)
		l.staged = l.staged[:0]
	}
	l.startLen = len(l.items)
	l.used = false
}
