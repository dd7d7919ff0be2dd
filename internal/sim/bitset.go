package sim

import "math/bits"

// BitSet is a fixed-capacity set of small non-negative integers, the
// activity list of a component with many identical parts (mesh routers,
// cache banks): the parts that hold work are members, and a cycle walks
// the members in ascending order instead of probing every part. It is
// sized once, so Set/Clear/Next never allocate.
type BitSet []uint64

// NewBitSet returns an empty set that can hold 0..n-1.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set adds i.
func (b BitSet) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i.
func (b BitSet) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is a member.
func (b BitSet) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Next returns the smallest member >= from, or -1 when there is none.
// A walk is `for i := s.Next(0); i >= 0; i = s.Next(i + 1)`; clearing
// the member just visited during the walk is safe.
func (b BitSet) Next(from int) int {
	w := from >> 6
	if w >= len(b) {
		return -1
	}
	if rest := b[w] >> (uint(from) & 63); rest != 0 {
		return from + bits.TrailingZeros64(rest)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}
