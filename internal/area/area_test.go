package area

import (
	"math"
	"testing"

	"repro/internal/hier"
	"repro/internal/sram"
)

// Table II published values.
var published = map[int]struct {
	totalMM2 float64
	netPct   float64
}{
	2: {0.46, 14.01},
	3: {0.86, 18.8},
	4: {1.59, 19.02},
}

func TestConventionalMatchesTableII(t *testing.T) {
	got := Conventional()
	if math.Abs(got-0.91)/0.91 > 0.20 {
		t.Fatalf("L1+L2 area = %.3f mm^2, published 0.91 (tolerance 20%%)", got)
	}
}

func TestLNUCATotalsMatchTableII(t *testing.T) {
	for levels, pub := range published {
		r := LNUCA(levels)
		if math.Abs(r.TotalMM2-pub.totalMM2)/pub.totalMM2 > 0.20 {
			t.Errorf("LN%d total = %.3f mm^2, published %.2f (tolerance 20%%)",
				levels, r.TotalMM2, pub.totalMM2)
		}
		if r.NetworkPct < 8 || r.NetworkPct > 28 {
			t.Errorf("LN%d network share = %.1f%%, published %.1f%% (want same regime)",
				levels, r.NetworkPct, pub.netPct)
		}
	}
}

func TestLN3SavesAreaVsConventional(t *testing.T) {
	// The paper's headline: LN3-144KB saves ~5.3% versus L2-256KB while
	// beating its performance. Require a saving in (0, 20%).
	r := LNUCA(3)
	if r.SavingsVsConventionalPct <= 0 {
		t.Fatalf("LN3 does not save area: %+.1f%% (total %.3f vs conv %.3f)",
			r.SavingsVsConventionalPct, r.TotalMM2, Conventional())
	}
	if r.SavingsVsConventionalPct > 20 {
		t.Fatalf("LN3 saving implausibly large: %.1f%%", r.SavingsVsConventionalPct)
	}
}

func TestOrderingAcrossLevels(t *testing.T) {
	r2, r3, r4 := LNUCA(2), LNUCA(3), LNUCA(4)
	if !(r2.TotalMM2 < r3.TotalMM2 && r3.TotalMM2 < r4.TotalMM2) {
		t.Fatalf("areas not increasing: %.3f %.3f %.3f",
			r2.TotalMM2, r3.TotalMM2, r4.TotalMM2)
	}
	// LN2 smaller than baseline, LN4 bigger (Table II).
	if r2.TotalMM2 >= Conventional() {
		t.Error("LN2 should be well below the conventional pair")
	}
	if r4.TotalMM2 <= Conventional() {
		t.Error("LN4 should exceed the conventional pair")
	}
	// Network share grows then roughly saturates (14 -> ~19%).
	if r2.NetworkPct >= r3.NetworkPct {
		t.Errorf("network share should grow from LN2 (%.1f%%) to LN3 (%.1f%%)",
			r2.NetworkPct, r3.NetworkPct)
	}
}

func TestReportInternalConsistency(t *testing.T) {
	r := LNUCA(3)
	sum := r.RTileMM2 + r.TilesMM2 + r.NetworkMM2
	if math.Abs(sum-r.TotalMM2) > 1e-9 {
		t.Fatalf("total %.4f != parts %.4f", r.TotalMM2, sum)
	}
	if r.TilesMM2 <= 0 || r.RTileMM2 <= 0 || r.NetworkMM2 <= 0 {
		t.Fatal("non-positive component")
	}
	tab := hier.DefaultTableI()
	if got := 14 * sram.AreaMM2(tab.TileSRAM()); math.Abs(got-r.TilesMM2) > 1e-9 {
		t.Fatalf("LN3 tile area %.4f != 14 x tile %.4f", r.TilesMM2, got)
	}
	if sram.AreaMM2(hier.SRAM(tab.L1)) != r.RTileMM2 {
		t.Fatal("r-tile area mismatch")
	}
}
