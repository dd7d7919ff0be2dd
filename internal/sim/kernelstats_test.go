package sim

import "testing"

// TestStatsCoverGatedRun: the KernelStats accounting of a gated run
// closes — stepped plus skipped cycles cover the whole window — and the
// derived ratios stay inside their bounds.
func TestStatsCoverGatedRun(t *testing.T) {
	a := newTickComp("a", 10, 500)
	b := newTickComp("b", 300)
	k := NewKernel()
	k.MustRegister(a)
	k.MustRegister(b)
	k.Run(1000)

	st := k.Stats()
	if st.Stepped+st.SkippedCycles != 1000 {
		t.Fatalf("stepped(%d) + skipped(%d) != 1000", st.Stepped, st.SkippedCycles)
	}
	if st.SkipRatio() <= 0 || st.SkipRatio() >= 1 {
		t.Errorf("skip ratio = %v, want in (0, 1) for this sparse schedule", st.SkipRatio())
	}
	if avg := st.AvgActive(); avg <= 0 || avg > float64(st.Components) {
		t.Errorf("avg active = %v, want in (0, %d]", avg, st.Components)
	}
}

// TestStatsOnPlainSteps: Step() counts every component as evaluated, and
// plain stepping never fast-forwards.
func TestStatsOnPlainSteps(t *testing.T) {
	k := NewKernel()
	k.MustRegister(&plainComp{})
	for i := 0; i < 25; i++ {
		k.Step()
	}
	st := k.Stats()
	if st.Stepped != 25 {
		t.Errorf("stepped = %d, want 25", st.Stepped)
	}
	if st.ActiveEvals != 25 {
		t.Errorf("active evals = %d, want 25 (1 component x 25 cycles)", st.ActiveEvals)
	}
	if st.FastForwards != 0 {
		t.Error("plain stepping fast-forwarded")
	}
	if avg := st.AvgActive(); avg != 1 {
		t.Errorf("avg active = %v, want exactly 1", avg)
	}
}

// TestStatsDelta: Delta isolates the activity of one window.
func TestStatsDelta(t *testing.T) {
	a := newTickComp("a", 10, 500, 1500)
	k := NewKernel()
	k.MustRegister(a)
	k.Run(1000)
	before := k.Stats()
	k.Run(1000)
	d := k.Stats().Delta(before)
	if d.Cycle != 1000 {
		t.Errorf("delta cycles = %d, want 1000", d.Cycle)
	}
	if d.Stepped+d.SkippedCycles != 1000 {
		t.Errorf("delta stepped(%d) + skipped(%d) != 1000", d.Stepped, d.SkippedCycles)
	}
}
