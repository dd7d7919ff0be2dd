package workload

import "testing"

// streamFold is an FNV-1a fold of every field of the first n ops a
// generator emits.
func streamFold(g *Generator, n int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i := 0; i < n; i++ {
		op, _ := g.Next()
		taken := uint64(0)
		if op.Taken {
			taken = 1
		}
		mix(uint64(op.Class) | uint64(op.Lat)<<8 | taken<<16)
		mix(uint64(uint32(op.Dep1)) | uint64(uint32(op.Dep2))<<32)
		mix(uint64(op.Addr))
		mix(op.PC)
	}
	return h
}

// TestGeneratorStreamGolden pins the op stream itself, independent of any
// simulation: the folds were generated at the commit before depDist's
// geometric draw moved to integer thresholds (sim.Rand.RunAbove), so an
// equal fold proves the draw emits the same 2 M ops per benchmark.
func TestGeneratorStreamGolden(t *testing.T) {
	const ops = 2_000_000
	for _, c := range []struct {
		bench string
		want  uint64
	}{
		{"403.gcc", 0xf30029d85800812a},
		{"429.mcf", 0x161ed06e5d9de77a},
		{"434.zeusmp", 0xad39e0f92522b6a6},
		{"482.sphinx3", 0x5eb0e2e31e9c9c74},
	} {
		p, ok := ByName(c.bench)
		if !ok {
			t.Fatalf("no profile %s", c.bench)
		}
		if got := streamFold(MustGenerator(p, 1), ops); got != c.want {
			t.Errorf("%s: stream fold %#016x, want %#016x", c.bench, got, c.want)
		}
	}
}
