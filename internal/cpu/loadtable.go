package cpu

// loadTable maps the request ID of every load waiting on memory to its
// ROB seq. The LSQ bounds those loads, so the table is fixed: open
// addressing with linear probing over a power-of-two array at most half
// full, and backward-shift deletion so it never holds a tombstone.
type loadTable struct {
	ids  []uint64 // 0 = free; mem.IDSource never hands out 0
	seqs []uint64
	n    int
}

func newLoadTable(maxLoads int) loadTable {
	size := 2
	for size < 2*maxLoads {
		size <<= 1
	}
	return loadTable{ids: make([]uint64, size), seqs: make([]uint64, size)}
}

// put records id -> seq; id must not be present.
func (t *loadTable) put(id, seq uint64) {
	if t.n++; 2*t.n > len(t.ids) {
		panic("cpu: more loads in memory than LSQ entries")
	}
	mask := uint64(len(t.ids) - 1)
	i := id & mask
	for t.ids[i] != 0 {
		i = (i + 1) & mask
	}
	t.ids[i], t.seqs[i] = id, seq
}

// take removes id and returns its seq; ok is false when id is absent.
func (t *loadTable) take(id uint64) (seq uint64, ok bool) {
	mask := uint64(len(t.ids) - 1)
	i := id & mask
	for t.ids[i] != id {
		if t.ids[i] == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
	seq = t.seqs[i]
	t.n--
	// Close the gap: move back every later entry of the probe run whose
	// home slot does not lie cyclically in (i, j].
	for j := (i + 1) & mask; t.ids[j] != 0; j = (j + 1) & mask {
		if home := t.ids[j] & mask; (j-home)&mask >= (j-i)&mask {
			t.ids[i], t.seqs[i] = t.ids[j], t.seqs[j]
			i = j
		}
	}
	t.ids[i] = 0
	return seq, true
}
