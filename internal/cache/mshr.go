package cache

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// Target is one requester waiting on an outstanding miss. Addr preserves
// the requester's original address: levels below may use larger blocks,
// so a fill response must echo the address the requester asked for, not
// the coarser line that carried it.
type Target struct {
	ReqID  uint64
	Addr   mem.Addr
	Kind   mem.Kind
	Issued sim.Cycle
}

// MSHR tracks one outstanding miss (one block) and the requests merged
// into it.
type MSHR struct {
	Line    mem.Addr
	Targets []Target
}

// MSHRFile is a bounded set of MSHRs. Table I gives 16 entries for
// L1/L2 (8 for L3) and allows 4 secondary misses to merge per entry.
type MSHRFile struct {
	entries      []*MSHR
	freelist     []*MSHR // the maxEntries-len(entries) entries not in use
	maxEntries   int
	maxSecondary int

	// Stats
	Primary, Secondary uint64
}

// NewMSHRFile builds a file with maxEntries entries, each accepting
// maxSecondary merged requests beyond the first.
func NewMSHRFile(maxEntries, maxSecondary int) *MSHRFile {
	if maxEntries <= 0 {
		maxEntries = 1
	}
	if maxSecondary < 0 {
		maxSecondary = 0
	}
	f := &MSHRFile{
		entries:      make([]*MSHR, 0, maxEntries),
		freelist:     make([]*MSHR, maxEntries),
		maxEntries:   maxEntries,
		maxSecondary: maxSecondary,
	}
	for i := range f.freelist {
		f.freelist[i] = &MSHR{Targets: make([]Target, 0, 2+maxSecondary)} // +1: MergeWrite's slot
	}
	return f
}

// Lookup returns the MSHR for line, or nil.
func (f *MSHRFile) Lookup(line mem.Addr) *MSHR {
	for _, m := range f.entries {
		if m.Line == line {
			return m
		}
	}
	return nil
}

// Full reports whether a new primary miss cannot allocate.
func (f *MSHRFile) Full() bool { return len(f.entries) >= f.maxEntries }

// Len returns the number of live entries.
func (f *MSHRFile) Len() int { return len(f.entries) }

// Cap returns the number of entries the file can hold.
func (f *MSHRFile) Cap() int { return f.maxEntries }

// Allocate creates an entry for a primary miss on line. It returns nil
// when the file is full (the caller must stall). Every entry the file
// can hold was built with it, so a miss stream allocates nothing.
func (f *MSHRFile) Allocate(line mem.Addr, t Target) *MSHR {
	if f.Full() {
		return nil
	}
	n := len(f.freelist) - 1
	m := f.freelist[n]
	f.freelist = f.freelist[:n]
	m.Line = line
	//lnuca:allow(hotalloc) appends into the entry's Targets capacity, fixed at 2+maxSecondary
	m.Targets = append(m.Targets[:0], t)
	//lnuca:allow(hotalloc) appends into capacity fixed at maxEntries; Full bounds the length
	f.entries = append(f.entries, m)
	f.Primary++
	return m
}

// Merge adds a secondary miss to an existing entry. It reports false when
// the per-entry secondary limit is reached (the caller must stall).
func (f *MSHRFile) Merge(m *MSHR, t Target) bool {
	if !f.CanMerge(m) {
		return false
	}
	//lnuca:allow(hotalloc) appends into the entry's Targets capacity; CanMerge bounds the length
	m.Targets = append(m.Targets, t)
	f.Secondary++
	return true
}

// MergeWrite merges a write, which waits for no response, into m — past the
// secondary limit too: refused, it would hold the buffer m's fill needs.
func (f *MSHRFile) MergeWrite(m *MSHR, t Target) {
	for _, o := range m.Targets {
		if o.Kind == mem.Write && !f.CanMerge(m) {
			return // the fill installs the block dirty already
		}
	}
	//lnuca:allow(hotalloc) appends into the entry's Targets capacity, 2+maxSecondary: one write at most past the limit
	m.Targets = append(m.Targets, t)
	f.Secondary++
}

// CanMerge reports whether m still has secondary-miss room.
func (f *MSHRFile) CanMerge(m *MSHR) bool {
	return len(m.Targets)-1 < f.maxSecondary
}

// Free releases the entry for line and returns its merged targets in
// arrival order. It returns nil when no entry exists. The returned
// slice aliases a recycled entry: it is valid only until the next
// Allocate on this file (every caller consumes it immediately).
func (f *MSHRFile) Free(line mem.Addr) []Target {
	for i, m := range f.entries {
		if m.Line == line {
			//lnuca:allow(hotalloc) in-place filter into the slice's own backing array; no growth
			f.entries = append(f.entries[:i], f.entries[i+1:]...)
			//lnuca:allow(hotalloc) appends into capacity fixed at maxEntries
			f.freelist = append(f.freelist, m)
			return m.Targets
		}
	}
	return nil
}
