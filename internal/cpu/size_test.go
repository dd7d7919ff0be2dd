package cpu

import (
	"testing"
	"unsafe"
)

// TestOpSizes pins the sizes an op costs where it is copied: once into a
// run-ahead block and across to the core, once into the decode queue,
// and the part of it the ROB reads once into a ROB entry at dispatch.
// Op's fields run widest first so it packs into 32 bytes, and a ROB
// entry fills one 64-byte cache line; a reordering that pads either
// moves its size.
func TestOpSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Op", unsafe.Sizeof(Op{}), 32},
		{"decoded", unsafe.Sizeof(decoded{}), 40},
		{"robEntry", unsafe.Sizeof(robEntry{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
