package cpu

import (
	"runtime"
	"sync"
)

// The supply's geometry, by lnucabench pairs on a 2-vCPU host: at 1024
// ops × 2 buffers the core often parked on an empty channel, the woken
// producer then ran on the core's own P, and kernel_conv sim_mips pairs
// spread 0.94–1.21x; at 8192 × 4 the worst pair read 1.007x. That is
// 1 MB per core, pointer-free, so the garbage collector never scans it.
const (
	aheadBlockOps = 8192
	aheadBuffers  = 4
	// aheadSlack covers what a core fetches past its budget: ROB +
	// decode queue + a fetch group, 148 for DefaultConfig.
	aheadSlack = 256
)

// blockPool passes a closed supply's blocks on: without it each run
// allocates 1 MB a core, half as much again as the rest of a Quick run.
var blockPool = sync.Pool{New: func() any { return new([aheadBlockOps]Op) }}

// Ahead is a run-ahead instruction supply: a producer goroutine reads a
// pure, infinite Stream — a synthetic generator, which nothing the
// simulation does can reach — into fixed blocks and hands them over in
// order, so a Core only indexes ops that are ready. The ops and their
// order are the source's.
type Ahead struct {
	full <-chan []Op   // filled blocks, in stream order
	free chan<- []Op   // spent blocks, back to the producer
	quit chan struct{} // closed by Close; nil once closed
	src  Stream        // the reader's once the producer stops at its cap
	cur  []Op          // the block being read, from pos on
	pos  int
	// blocks are all of the supply's blocks, back to blockPool on Close.
	blocks [aheadBuffers]*[aheadBlockOps]Op
}

// RunAhead starts a producer over src for a core with a budget of
// maxInstr committed instructions (0 = none). With a budget it stops
// after maxInstr+aheadSlack ops, rounded up to whole blocks, and a
// reader that wants more reads src itself. The garbage collector closes
// a supply that is dropped unclosed.
func RunAhead(src Stream, maxInstr uint64) *Ahead {
	full, free := make(chan []Op, aheadBuffers), make(chan []Op, aheadBuffers)
	a := &Ahead{full: full, free: free, quit: make(chan struct{}), src: src}
	for i := range a.blocks {
		a.blocks[i] = blockPool.Get().(*[aheadBlockOps]Op)
		free <- a.blocks[i][:]
	}
	// The producer holds no reference to a, so a dropped supply becomes
	// unreachable and its finalizer stops the producer.
	go produce(src, maxInstr, free, full, a.quit)
	runtime.SetFinalizer(a, (*Ahead).Close)
	return a
}

// produce fills blocks until quit is closed or a budget's ops and slack
// are made; closing full on the way out hands src to the reader.
func produce(src Stream, maxInstr uint64, free <-chan []Op, full chan<- []Op, quit <-chan struct{}) {
	defer close(full)
	for n := uint64(0); maxInstr == 0 || n < maxInstr+aheadSlack; n += aheadBlockOps {
		var b []Op
		select {
		case b = <-free:
		case <-quit:
			return
		}
		for i := range b {
			b[i], _ = src.Next()
		}
		full <- b // room for every block: never waits
	}
}

// Next implements Stream; it never ends. It inlines, so a Core reading
// it indexes the current block.
func (a *Ahead) Next() (Op, bool) {
	if a.pos == len(a.cur) {
		a.refill()
	}
	a.pos++
	return a.cur[a.pos-1], true
}

// refill makes the next block current: the producer's while it runs,
// then the spent block filled again from src.
func (a *Ahead) refill() {
	a.pos = 0
	if b, ok := <-a.full; ok {
		if a.cur != nil {
			a.free <- a.cur
		}
		a.cur = b
		return
	}
	for i := range a.cur {
		a.cur[i], _ = a.src.Next()
	}
}

// Close stops the producer and waits for it to exit; closing twice is a
// no-op, reading after it panics.
func (a *Ahead) Close() {
	if a.quit != nil {
		runtime.SetFinalizer(a, nil)
		close(a.quit)
		for range a.full {
		}
		for _, b := range a.blocks {
			blockPool.Put(b)
		}
		a.quit, a.cur, a.pos = nil, nil, 0
	}
}
