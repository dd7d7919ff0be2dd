package cpu

import (
	"testing"

	"repro/internal/sim"
)

func TestBPredLearnsBias(t *testing.T) {
	p := NewBPred()
	// A heavily-taken branch must be predicted taken after warmup.
	for i := 0; i < 1000; i++ {
		p.Update(0x400, true)
	}
	if !p.Predict(0x400) {
		t.Fatal("biased-taken branch not learned")
	}
	if accuracy(p) < 0.95 {
		t.Fatalf("accuracy on a fully biased branch = %v, want > 0.95", accuracy(p))
	}
}

func TestBPredLearnsPatternViaHistory(t *testing.T) {
	p := NewBPred()
	// A short loop pattern (TTTN) is gshare's bread and butter.
	pattern := []bool{true, true, true, false}
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		taken := pattern[i%len(pattern)]
		if p.Predict(0x800) == taken {
			correct++
		}
		p.Update(0x800, taken)
		total++
	}
	// Skip warmup: check steady-state over the last half.
	acc := float64(correct) / float64(total)
	if acc < 0.85 {
		t.Fatalf("pattern accuracy = %v, want > 0.85 (gshare should learn TTTN)", acc)
	}
}

func TestBPredRandomBranchNearChance(t *testing.T) {
	p := NewBPred()
	rng := sim.NewRand(42)
	for i := 0; i < 20000; i++ {
		p.Update(uint64(0xC00+16*(i%7)), rng.Bool(0.5))
	}
	if accuracy(p) > 0.65 {
		t.Fatalf("accuracy on random branches = %v, should be near 0.5", accuracy(p))
	}
}

func TestBPredDistinctBranchesIndependent(t *testing.T) {
	p := NewBPred()
	for i := 0; i < 2000; i++ {
		p.Update(0x1000, true)
		p.Update(0x2000, false)
	}
	if !p.Predict(0x1000) || p.Predict(0x2000) {
		t.Fatal("two opposite-bias branches interfere")
	}
}

func TestSaturatingCounters(t *testing.T) {
	if satInc(3) != 3 {
		t.Error("satInc should saturate at 3")
	}
	if satDec(0) != 0 {
		t.Error("satDec should saturate at 0")
	}
	if satInc(1) != 2 || satDec(2) != 1 {
		t.Error("counters should move by one")
	}
}

// accuracy is the fraction of the predictor's lookups it got right.
func accuracy(p *BPred) float64 {
	return 1 - float64(p.Mispredicts)/float64(p.Lookups)
}

func TestAccuracyEmptyPredictor(t *testing.T) {
	if p := NewBPred(); p.Lookups != 0 || p.Mispredicts != 0 {
		t.Error("a new predictor has counted lookups")
	}
}
