package timing

import (
	"strings"
	"testing"

	"repro/internal/sram"
	"repro/internal/tech"
)

func tile(sizeKB, ways int) sram.Config {
	return sram.Config{
		SizeBytes:  sizeKB << 10,
		Ways:       ways,
		BlockBytes: 32,
		Ports:      1,
		Device:     tech.HP,
	}
}

func TestPaperTileFitsSingleCycle(t *testing.T) {
	// Section IV: "the largest configuration found for the one-cycle
	// L-NUCA tile was an 8KB-2Way-32B cache".
	r := Analyze(tile(8, 2))
	if !r.SingleCycle() {
		t.Fatalf("8KB 2-way tile must fit in one cycle:\n%s", r)
	}
	if !r.HitTransport.Fits() {
		t.Errorf("hit+transport path does not fit: %.1f FO4", r.HitTransport.Total())
	}
	if !r.MissPropagate.Fits() {
		t.Errorf("miss propagation path does not fit: %.1f FO4", r.MissPropagate.Total())
	}
}

func TestBiggerTileMissesBudget(t *testing.T) {
	r := Analyze(tile(16, 2))
	if r.SingleCycle() {
		t.Fatalf("16KB tile should not fit in one cycle (paper found 8KB max):\n%s", r)
	}
}

func TestLargestOneCycleTileIs8KB2Way(t *testing.T) {
	best := LargestOneCycleTile(tile(8, 2))
	if best.SizeBytes != 8<<10 || best.Ways != 2 {
		t.Fatalf("LargestOneCycleTile = %dKB %d-way, want 8KB 2-way",
			best.SizeBytes/1024, best.Ways)
	}
}

func TestMissPathFasterThanHitPath(t *testing.T) {
	// Miss determination uses only the tag path (~80% of access), so it
	// must be faster than the hit+transport path; this is what lets the
	// search propagate in the same cycle (Section III.C).
	r := Analyze(tile(8, 2))
	if r.MissPropagate.Total() >= r.HitTransport.Total() {
		t.Errorf("miss path (%.1f) should be shorter than hit path (%.1f)",
			r.MissPropagate.Total(), r.HitTransport.Total())
	}
}

func TestSlackArithmetic(t *testing.T) {
	p := Path{Name: "x", Stages: []Stage{{"a", 10}, {"b", 5}}}
	if p.Total() != 15 {
		t.Errorf("Total = %v, want 15", p.Total())
	}
	if p.Slack() != tech.FO4PerCycle-15 {
		t.Errorf("Slack = %v", p.Slack())
	}
	if !p.Fits() {
		t.Error("path with positive slack should fit")
	}
	huge := Path{Stages: []Stage{{"z", 100}}}
	if huge.Fits() {
		t.Error("100 FO4 path cannot fit a 19 FO4 cycle")
	}
}

func TestReportRendering(t *testing.T) {
	out := Analyze(tile(8, 2)).String()
	for _, want := range []string{"8KB 2-way", "tag+data access", "switch traversal", "FITS"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	out16 := Analyze(tile(16, 2)).String()
	if !strings.Contains(out16, "TOO SLOW") {
		t.Errorf("16KB report should flag the failing path:\n%s", out16)
	}
}
