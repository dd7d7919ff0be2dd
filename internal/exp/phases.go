package exp

import (
	"time"

	"repro/internal/sim"
)

// Phases is the per-run timing and kernel-activity breakdown — wall
// time per phase plus the activity-gating counters over the whole
// simulated window. It answers "why was this run fast or slow": a high
// SkipRatio means quiescence fast-forwarding carried the run; a MIPS
// drop with a flat skip ratio points at the active-set cost.
//
// Phases describe the execution, not the experiment: two runs of the
// same job produce identical Results but different Phases, so the
// result cache strips them before storing (they never enter the
// content-addressed bytes) and they are reported only for the run that
// actually simulated.
type Phases struct {
	// BuildSeconds is the wall time spent assembling the system.
	BuildSeconds float64 `json:"build_seconds"`
	// WarmupSeconds covers the functional prewarm plus the timed warmup
	// window; MeasureSeconds covers the measured window.
	WarmupSeconds  float64 `json:"warmup_seconds"`
	MeasureSeconds float64 `json:"measure_seconds"`
	// Instructions is the committed-instruction count of the measured
	// window (summed over cores in a mix); MIPS is Instructions over
	// MeasureSeconds, in millions — the simulator's throughput.
	Instructions uint64  `json:"instructions,omitempty"`
	MIPS         float64 `json:"mips,omitempty"`

	// Kernel activity over warmup+measure (simulated-time accounting):
	// SteppedCycles were executed, FastForwardedCycles were bulk-skipped
	// in FastForwards jumps, EvalsSkipped single components sat out
	// stepped cycles, idle or asleep.
	SteppedCycles       uint64 `json:"stepped_cycles,omitempty"`
	FastForwardedCycles uint64 `json:"fastforwarded_cycles,omitempty"`
	FastForwards        uint64 `json:"fastforwards,omitempty"`
	EvalsSkipped        uint64 `json:"evals_skipped,omitempty"`
	// SkipRatio is FastForwardedCycles over total simulated cycles;
	// AvgActiveComponents is mean Evals per executed cycle.
	SkipRatio           float64 `json:"skip_ratio,omitempty"`
	AvgActiveComponents float64 `json:"avg_active_components,omitempty"`
}

// fillKernel copies one KernelStats delta into the breakdown.
func (p *Phases) fillKernel(d sim.KernelStats) {
	p.SteppedCycles = d.Stepped
	p.FastForwardedCycles = d.SkippedCycles
	p.FastForwards = d.FastForwards
	p.EvalsSkipped = d.EvalsSkipped
	p.SkipRatio = d.SkipRatio()
	p.AvgActiveComponents = d.AvgActive()
}

// fillMeasure records the measured window's throughput.
func (p *Phases) fillMeasure(instructions uint64, elapsed time.Duration) {
	p.Instructions = instructions
	p.MeasureSeconds = elapsed.Seconds()
	if p.MeasureSeconds > 0 {
		p.MIPS = float64(instructions) / p.MeasureSeconds / 1e6
	}
}
