// Package cache implements the building blocks every cache level of the
// simulated hierarchy is made of: a set-associative bank with true LRU, a
// miss status holding register (MSHR) file with secondary-miss merging, a
// coalescing write buffer, and a generic timed controller used for the
// conventional L2 and L3 levels of Table I.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// BankConfig describes the geometry of one SRAM bank.
type BankConfig struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
}

// NumSets returns the number of sets implied by the geometry.
func (c BankConfig) NumSets() int {
	return c.SizeBytes / (c.Ways * c.BlockBytes)
}

// Validate reports whether the geometry is self-consistent.
func (c BankConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	sets := c.NumSets()
	if sets <= 0 || sets*c.Ways*c.BlockBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte blocks",
			c.SizeBytes, c.Ways, c.BlockBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Victim describes a block displaced by a fill.
type Victim struct {
	Addr  mem.Addr
	Dirty bool
}

// way holds one block frame.
type way struct {
	line  mem.Addr // block-aligned address
	valid bool
	dirty bool
}

// Bank is a set-associative cache array with true LRU replacement. It is a
// pure state container: all timing lives in the controllers that use it.
// Within each set, ways are kept ordered most-recently-used first, which
// makes LRU exact and cheap at simulation associativities.
type Bank struct {
	cfg     BankConfig
	sets    [][]way
	numSets int
	occ     int
	// Validate makes the block size and the set count powers of two, so
	// an address maps to its set with a shift and a mask.
	blockShift uint
	setMask    uint64
}

// NewBank builds a bank; it panics on invalid geometry (a wiring bug).
func NewBank(cfg BankConfig) *Bank {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumSets()
	sets := make([][]way, n)
	backing := make([]way, n*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Bank{
		cfg: cfg, sets: sets, numSets: n,
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:    uint64(n - 1),
	}
}

// Config returns the bank geometry.
func (b *Bank) Config() BankConfig { return b.cfg }

// setIndex maps an address to its set.
func (b *Bank) setIndex(a mem.Addr) int {
	return int(uint64(a) >> b.blockShift & b.setMask)
}

// Line returns the block frame address of a in this bank's geometry.
func (b *Bank) Line(a mem.Addr) mem.Addr { return a.Line(b.cfg.BlockBytes) }

// findWay returns the position of the line within its set, or -1.
func (b *Bank) findWay(set []way, line mem.Addr) int {
	for i := range set {
		if set[i].valid && set[i].line == line {
			return i
		}
	}
	return -1
}

// Probe reports whether the block containing a is present, without
// touching replacement state (a tag-array-only lookup).
func (b *Bank) Probe(a mem.Addr) bool {
	line := b.Line(a)
	return b.findWay(b.sets[b.setIndex(a)], line) >= 0
}

// Access performs a demand access. On a hit the block becomes MRU; when
// write is set, the block is marked dirty. It reports whether it hit.
func (b *Bank) Access(a mem.Addr, write bool) bool {
	line := b.Line(a)
	set := b.sets[b.setIndex(a)]
	i := b.findWay(set, line)
	if i < 0 {
		return false
	}
	entry := set[i]
	if write {
		entry.dirty = true
	}
	copy(set[1:i+1], set[0:i])
	set[0] = entry
	return true
}

// Fill inserts the block containing a as MRU. If the set is full the LRU
// block is evicted and returned. Filling a block that is already present
// refreshes it (and ORs dirty) instead of duplicating it.
func (b *Bank) Fill(a mem.Addr, dirty bool) (Victim, bool) {
	line := b.Line(a)
	si := b.setIndex(a)
	set := b.sets[si]
	if i := b.findWay(set, line); i >= 0 {
		entry := set[i]
		entry.dirty = entry.dirty || dirty
		copy(set[1:i+1], set[0:i])
		set[0] = entry
		return Victim{}, false
	}
	// Look for an invalid way.
	victimIdx := -1
	for i := range set {
		if !set[i].valid {
			victimIdx = i
			break
		}
	}
	var evicted Victim
	hasVictim := false
	if victimIdx < 0 {
		victimIdx = len(set) - 1 // true LRU
		evicted = Victim{Addr: set[victimIdx].line, Dirty: set[victimIdx].dirty}
		hasVictim = true
	} else {
		b.occ++
	}
	copy(set[1:victimIdx+1], set[0:victimIdx])
	set[0] = way{line: line, valid: true, dirty: dirty}
	return evicted, hasVictim
}

// PreloadRange installs every block of [base, base+bytes) clean, leaving
// the bank exactly as Fill(base+off, false) for off = 0, BlockBytes, ...
// < bytes would, victims dropped — but set by set rather than block by
// block: a set receives every numSets-th block of the range, so it ends
// up holding those blocks newest first, then what it held before,
// truncated to its ways. The range must hold no block already present
// (functional warmup regions are disjoint by construction); one that
// does is a wiring bug and panics.
func (b *Bank) PreloadRange(base mem.Addr, bytes int) {
	first := b.Line(base)
	blocks := (bytes + b.cfg.BlockBytes - 1) >> b.blockShift
	end := first + mem.Addr(blocks)<<b.blockShift
	s0 := b.setIndex(first)
	for j := 0; j < blocks && j < b.numSets; j++ {
		set := b.sets[(s0+j)&int(b.setMask)]
		held := 0
		for held < len(set) && set[held].valid {
			if l := set[held].line; l >= first && l < end {
				panic(fmt.Sprintf("cache: PreloadRange [%#x,%#x) over resident block %#x", first, end, l))
			}
			held++
		}
		// Blocks j, j+numSets, ... of the range map here; the last is newest.
		fresh := (blocks-1-j)/b.numSets + 1
		newest := j + (fresh-1)*b.numSets
		if fresh > len(set) {
			fresh = len(set)
		}
		keep := held
		if keep > len(set)-fresh {
			keep = len(set) - fresh
		}
		copy(set[fresh:fresh+keep], set[:keep])
		for i := 0; i < fresh; i++ {
			set[i] = way{line: first + mem.Addr(newest-i*b.numSets)<<b.blockShift, valid: true}
		}
		b.occ += fresh + keep - held
	}
}

// Invalidate removes the block containing a, returning whether it was
// present and whether it was dirty. Used for content exclusion: when an
// L-NUCA tile hits, the block leaves the tile.
func (b *Bank) Invalidate(a mem.Addr) (dirty, present bool) {
	line := b.Line(a)
	si := b.setIndex(a)
	set := b.sets[si]
	i := b.findWay(set, line)
	if i < 0 {
		return false, false
	}
	dirty = set[i].dirty
	copy(set[i:], set[i+1:])
	set[len(set)-1] = way{}
	b.occ--
	return dirty, true
}

// HasSpace reports whether the set that a maps to has an invalid way.
func (b *Bank) HasSpace(a mem.Addr) bool {
	for _, w := range b.sets[b.setIndex(a)] {
		if !w.valid {
			return true
		}
	}
	return false
}

// VictimFor returns the block that a fill of a would evict, without
// performing the fill. ok is false when the set still has room.
func (b *Bank) VictimFor(a mem.Addr) (Victim, bool) {
	set := b.sets[b.setIndex(a)]
	for _, w := range set {
		if !w.valid {
			return Victim{}, false
		}
	}
	last := set[len(set)-1]
	return Victim{Addr: last.line, Dirty: last.dirty}, true
}

// ExtractVictim removes and returns the LRU block of the set that a maps
// to. ok is false when the set has a free way (nothing needs to leave).
func (b *Bank) ExtractVictim(a mem.Addr) (Victim, bool) {
	v, ok := b.VictimFor(a)
	if !ok {
		return Victim{}, false
	}
	b.Invalidate(v.Addr)
	return v, true
}

// Occupancy returns the number of valid blocks in the bank.
func (b *Bank) Occupancy() int { return b.occ }

// Capacity returns the total number of block frames.
func (b *Bank) Capacity() int { return b.numSets * b.cfg.Ways }

// Lines appends every valid block address to dst and returns it; used by
// invariant-checking tests.
func (b *Bank) Lines(dst []mem.Addr) []mem.Addr {
	for _, set := range b.sets {
		for _, w := range set {
			if w.valid {
				dst = append(dst, w.line)
			}
		}
	}
	return dst
}

// IsDirty reports whether the block containing a is present and dirty.
func (b *Bank) IsDirty(a mem.Addr) bool {
	line := b.Line(a)
	set := b.sets[b.setIndex(a)]
	i := b.findWay(set, line)
	return i >= 0 && set[i].dirty
}
