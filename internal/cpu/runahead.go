package cpu

import (
	"container/list"
	"runtime"
	"sync"
	"unsafe"
)

// The supply's geometry, by lnucabench pairs on a 2-vCPU host: at 1024
// ops × 2 buffers the core often parked on an empty channel, the woken
// producer then ran on the core's own P, and kernel_conv sim_mips pairs
// spread 0.94–1.21x; at 8192 × 4 the worst pair read 1.007x. A block is
// 256 KiB, pointer-free, so the garbage collector never scans it; a
// supply keeps at most 4 filled blocks ahead of the one its core reads.
const (
	aheadBlockOps = 8192
	aheadBuffers  = 4
	// aheadSlack covers what a core fetches past its budget: ROB +
	// decode queue + a fetch group, 148 for DefaultConfig.
	aheadSlack = 256
	// memoCapBytes bounds the finished streams kept for reuse. A Quick
	// stream is 3 blocks (768 KiB) and a Full one 30 (7.5 MiB); a
	// 28-benchmark Quick figure run needs 21 MiB.
	memoCapBytes = 64 << 20
)

const blockBytes = aheadBlockOps * int64(unsafe.Sizeof(Op{}))

// blockPool passes a closed ring's blocks on: without it each run
// allocates 1 MB a core, half as much again as the rest of a Quick run.
var blockPool = sync.Pool{New: func() any { return new([aheadBlockOps]Op) }}

// Ahead is a run-ahead instruction supply: a producer goroutine reads a
// pure, infinite Stream — a synthetic generator, which nothing the
// simulation does can reach — into fixed blocks and hands them over in
// order, so a Core only indexes ops that are ready. The ops and their
// order are the source's.
//
// A budgeted stream that fits the memo is generated once per process:
// the first supply of its key fills fresh blocks and publishes them when
// the whole budget is filled; every later supply of the key reads those
// blocks, shared and read-only, and starts no goroutine. Any other
// stream runs through a ring of pooled blocks until Close.
type Ahead struct {
	full <-chan []Op   // filled blocks, in stream order
	free chan<- []Op   // spent ring blocks, back to the producer; nil for a memo stream
	quit chan struct{} // closed by Close; nil once closed
	src  Stream        // the reader's once the blocks run out
	cur  []Op          // the block being read, from pos on
	pos  int
	// shared: cur is a memo stream's block, which no one writes. skip
	// is how far src lags the blocks: a hit's generator never ran.
	shared bool
	skip   int64
	// ring are the ring's blocks, back to blockPool on Close.
	ring []*[aheadBlockOps]Op
}

// RunAhead supplies src's ops for a core with a budget of maxInstr
// committed instructions (0 = none). With a budget the supply holds
// maxInstr+aheadSlack ops, rounded up to whole blocks, and a reader that
// wants more reads src itself. key names src's stream: two supplies of
// one key and budget must read the same ops, and it is compared by
// value, so a key type that cannot be compared does not compile. The
// producer holds no reference to the supply, so the garbage collector
// closes one that is dropped unclosed.
func RunAhead[K comparable](src Stream, maxInstr uint64, key K) *Ahead {
	a := &Ahead{quit: make(chan struct{}), src: src}
	n := int64((maxInstr + aheadSlack + aheadBlockOps - 1) / aheadBlockOps)
	if maxInstr == 0 || n*blockBytes > memoCapBytes {
		// No end, or more than the memo holds: a ring, which runs until
		// Close. Past a budget of over 2 M ops its 32 Ki are under 2 %.
		full, free := make(chan []Op, aheadBuffers), make(chan []Op, aheadBuffers)
		a.full, a.free = full, free
		a.ring = make([]*[aheadBlockOps]Op, aheadBuffers)
		for i := range a.ring {
			a.ring[i] = blockPool.Get().(*[aheadBlockOps]Op)
			free <- a.ring[i][:]
		}
		go produce(src, free, full, a.quit)
		runtime.SetFinalizer(a, (*Ahead).Close)
		return a
	}
	a.shared = true
	mk := memoKey{key, n}
	if blocks := memo.get(mk); blocks != nil {
		full := make(chan []Op, len(blocks))
		for _, b := range blocks {
			full <- b
		}
		close(full)
		a.full, a.skip = full, n*aheadBlockOps
		return a
	}
	full := make(chan []Op, aheadBuffers)
	a.full = full
	go produceOnce(src, mk, full, a.quit)
	runtime.SetFinalizer(a, (*Ahead).Close)
	return a
}

// produce fills ring blocks until quit is closed.
func produce(src Stream, free <-chan []Op, full chan<- []Op, quit <-chan struct{}) {
	defer close(full)
	for {
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

// produceOnce fills k's blocks afresh, at most aheadBuffers ahead of the
// reader, and publishes them once all are filled: a supply closed
// sooner publishes nothing. Closing full hands src to the reader.
func produceOnce(src Stream, k memoKey, full chan<- []Op, quit <-chan struct{}) {
	defer close(full)
	blocks := make([][]Op, k.blocks)
	for i := range blocks {
		select {
		case <-quit:
			return
		default:
		}
		b := make([]Op, aheadBlockOps)
		for j := range b {
			b[j], _ = src.Next()
		}
		full <- b // waits while aheadBuffers are unread; Close drains
		blocks[i] = b
	}
	memo.put(k, blocks)
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

// refill makes the next block current: the producer's while there is
// one, then (a memo stream's budget spent; a ring has no end) a block of
// the reader's own filled from src.
func (a *Ahead) refill() {
	a.pos = 0
	if b, ok := <-a.full; ok {
		if a.free != nil && a.cur != nil {
			a.free <- a.cur
		}
		a.cur = b
		return
	}
	if a.shared {
		for ; a.skip > 0; a.skip-- {
			a.src.Next()
		}
		//lnuca:allow(hotalloc) once per supply, and only past its budget, which DefaultConfig never reaches
		a.cur, a.shared = make([]Op, aheadBlockOps), false
	}
	for i := range a.cur {
		a.cur[i], _ = a.src.Next()
	}
}

// Close stops the producer and waits for it to exit; closing twice is a
// no-op, reading after it panics. A ring's blocks go back to blockPool;
// a memo stream's stay with the memo, or with the garbage collector.
func (a *Ahead) Close() {
	if a.quit != nil {
		runtime.SetFinalizer(a, nil)
		close(a.quit)
		for range a.full {
		}
		for _, b := range a.ring {
			blockPool.Put(b)
		}
		a.quit, a.cur, a.pos, a.ring, a.shared = nil, nil, 0, nil, false
	}
}

// memoKey is a memo stream's identity: the caller's key and the number
// of blocks its budget rounds up to.
type memoKey struct {
	id     any
	blocks int64
}

type memoEntry struct {
	key    memoKey
	blocks [][]Op
}

// streamMemo holds finished streams, least recently used evicted first, never
// more than memoCapBytes of blocks. An evicted entry's blocks are only
// dropped: a supply may still be reading them.
type streamMemo struct {
	sync.Mutex
	byKey        map[memoKey]*list.Element
	lru          list.List // front: most recently used
	bytes        int64
	hits, misses uint64
}

var memo = streamMemo{byKey: make(map[memoKey]*list.Element)}

// MemoStats is what the process's memo of finished streams has served
// and what it holds.
type MemoStats struct {
	Hits, Misses uint64 // budgeted supplies that fit the memo
	Entries      int
	Bytes        int64
}

// ReadMemo reports the memo of finished streams.
func ReadMemo() MemoStats {
	memo.Lock()
	defer memo.Unlock()
	return MemoStats{memo.hits, memo.misses, memo.lru.Len(), memo.bytes}
}

// get returns k's blocks, or nil on a miss.
func (m *streamMemo) get(k memoKey) [][]Op {
	m.Lock()
	defer m.Unlock()
	e, ok := m.byKey[k]
	if !ok {
		m.misses++
		return nil
	}
	m.hits++
	m.lru.MoveToFront(e)
	return e.Value.(*memoEntry).blocks
}

// put publishes k's blocks. A concurrent miss of the same key that
// published first keeps its entry; these blocks are dropped.
func (m *streamMemo) put(k memoKey, blocks [][]Op) {
	m.Lock()
	defer m.Unlock()
	if _, ok := m.byKey[k]; ok {
		return
	}
	size := int64(len(blocks)) * blockBytes
	for m.bytes+size > memoCapBytes {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.byKey, old.key)
		m.bytes -= int64(len(old.blocks)) * blockBytes
	}
	m.byKey[k] = m.lru.PushFront(&memoEntry{k, blocks})
	m.bytes += size
}
