package nocpower

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinkTraversalEnergy(t *testing.T) {
	// A 32B transport message over a short inter-tile link should cost a
	// small fraction of a tile read (14 pJ): the paper's premise that
	// inter-tile migration is cheap.
	l := LinkSpec{Bits: 32*8 + 40, LengthMM: 0.25}
	e := l.TraversalPJ()
	if e <= 0 || e > 14 {
		t.Fatalf("transport hop = %.2f pJ, want (0, 14)", e)
	}
}

func TestLinkEnergyScalesWithWidthAndLength(t *testing.T) {
	narrow := LinkSpec{Bits: 64, LengthMM: 0.25}
	wide := LinkSpec{Bits: 256, LengthMM: 0.25}
	long := LinkSpec{Bits: 64, LengthMM: 2.0}
	if wide.TraversalPJ() <= narrow.TraversalPJ() {
		t.Error("wider link must cost more")
	}
	if long.TraversalPJ() <= narrow.TraversalPJ() {
		t.Error("longer link must cost more")
	}
}

func TestCrossbarEnergy(t *testing.T) {
	wide := Tally{Bits: 256, CrossbarTraversals: 1}
	narrow := Tally{Bits: 64, CrossbarTraversals: 1}
	if wide.EnergyPJ() <= narrow.EnergyPJ() {
		t.Error("crossbar energy must scale with width")
	}
}

func TestRouterAreaComposition(t *testing.T) {
	// An L-NUCA tile switch: ~6 buffer entries, 3x2 crossbar, short links.
	r := RouterSpec{
		InLinks: 4, OutLinks: 4,
		BufferEntries: 6,
		Bits:          296,
		CrossbarIn:    3, CrossbarOut: 2,
		AvgLinkMM: 0.25,
	}
	a := r.AreaMM2()
	if a <= 0 {
		t.Fatal("router area must be positive")
	}
	// Must be well below an 8KB tile array (~0.04 mm^2): network overhead
	// is 14-19% of the total in Table II.
	if a > 0.04 {
		t.Fatalf("router area = %.4f mm^2, implausibly large", a)
	}
	bigger := r
	bigger.BufferEntries = 12
	if bigger.AreaMM2() <= a {
		t.Error("more buffering must cost area")
	}
}

func TestRouterLeakagePositiveAndSmall(t *testing.T) {
	r := RouterSpec{BufferEntries: 6, Bits: 296}
	l := r.LeakageMW()
	if l <= 0 || l > 2.2 {
		t.Fatalf("router leakage = %.3f mW, want (0, 2.2) — below a tile array", l)
	}
}

func TestTallyEnergyMatchesManualSum(t *testing.T) {
	tl := NewTally(256, 0.5)
	tl.AddHop()
	tl.AddHop()
	want := 2 * (256*(BufferWritePJPerBit+BufferReadPJPerBit) +
		256*CrossbarPJPerBit + ArbiterPJPerEvent +
		256*LinkPJPerBitPerMM*0.5)
	if math.Abs(tl.EnergyPJ()-want) > 1e-9 {
		t.Fatalf("EnergyPJ = %v, want %v", tl.EnergyPJ(), want)
	}
}

func TestTallyAddHopsEquivalence(t *testing.T) {
	f := func(n uint8) bool {
		a := NewTally(128, 0.3)
		b := NewTally(128, 0.3)
		for i := 0; i < int(n); i++ {
			a.AddHop()
		}
		b.AddHops(uint64(n))
		return math.Abs(a.EnergyPJ()-b.EnergyPJ()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTallyMerge(t *testing.T) {
	a := NewTally(128, 0.3)
	b := NewTally(128, 0.3)
	a.AddHops(3)
	b.AddHops(4)
	a.Merge(b)
	c := NewTally(128, 0.3)
	c.AddHops(7)
	if math.Abs(a.EnergyPJ()-c.EnergyPJ()) > 1e-9 {
		t.Fatal("Merge must be additive")
	}
}
