// Package timing models the L-NUCA tile critical path of Fig. 3(d): a
// cache access plus one-hop transport routing must fit in a single
// 19 FO4 processor cycle. It stands in for the paper's HSPICE check of the
// transport crossbar and reproduces the design-space conclusion of
// Section IV: the largest one-cycle tile is an 8KB 2-way 32B cache.
package timing

import (
	"fmt"
	"strings"

	"repro/internal/sram"
	"repro/internal/tech"
)

// Stage delays in FO4, for the simplified structures Section III.C argues
// for (headerless messages, no VC allocation, cut-through 3-input
// crossbar).
const (
	// MissAddressLatchFO4 is the MA register clock-to-q plus setup.
	MissAddressLatchFO4 = 1.2
	// SwitchTraversalFO4 is the cut-through transport crossbar.
	SwitchTraversalFO4 = 3.2
	// DBufferSetupFO4 is the downstream Transport buffer write setup.
	DBufferSetupFO4 = 1.6
)

// Path is one timing path through a tile.
type Path struct {
	Name   string
	Stages []Stage
}

// Stage is one named delay contribution.
type Stage struct {
	Name string
	FO4  float64
}

// Total returns the path delay in FO4.
func (p Path) Total() float64 {
	sum := 0.0
	for _, s := range p.Stages {
		sum += s.FO4
	}
	return sum
}

// Slack returns the remaining budget against the cycle time (negative
// when the path does not fit).
func (p Path) Slack() float64 { return tech.FO4PerCycle - p.Total() }

// Fits reports whether the path meets the single-cycle constraint.
func (p Path) Fits() bool { return p.Slack() >= 0 }

// Report is the full tile timing analysis.
type Report struct {
	Tile sram.Config
	// HitTransport is the critical path: full cache access followed by
	// switch traversal into a neighbour's D buffer (Fig. 3(d)). Switch
	// allocation overlaps the data-array access, so it does not appear.
	HitTransport Path
	// MissPropagate is the search path: the hit/miss outcome (tag
	// compare, ~80% of the access) followed by the MA latch of the leaf
	// tile.
	MissPropagate Path
	// CycleFO4 is the budget.
	CycleFO4 float64
}

// Analyze computes the tile timing report for a tile geometry.
func Analyze(tile sram.Config) Report {
	access := sram.AccessFO4(tile)
	tag := sram.TagCompareFO4(tile)
	return Report{
		Tile:     tile,
		CycleFO4: tech.FO4PerCycle,
		HitTransport: Path{
			Name: "hit + one-hop transport",
			Stages: []Stage{
				{"MA latch", MissAddressLatchFO4},
				{"tag+data access", access},
				{"switch traversal", SwitchTraversalFO4},
				{"D buffer setup", DBufferSetupFO4},
			},
		},
		MissPropagate: Path{
			Name: "miss determination + propagation",
			Stages: []Stage{
				{"MA latch", MissAddressLatchFO4},
				{"tag compare", tag},
				{"U-buffer comparators (overlapped)", 0},
				{"leaf MA latch", MissAddressLatchFO4},
			},
		},
	}
}

// SingleCycle reports whether both tile paths fit in one cycle.
func (r Report) SingleCycle() bool {
	return r.HitTransport.Fits() && r.MissPropagate.Fits()
}

// String renders the report in the style of Fig. 3(d).
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tile %dKB %d-way %dB — cycle budget %.1f FO4\n",
		r.Tile.SizeBytes/1024, r.Tile.Ways, r.Tile.BlockBytes, r.CycleFO4)
	for _, p := range []Path{r.HitTransport, r.MissPropagate} {
		fmt.Fprintf(&b, "  path: %s\n", p.Name)
		for _, s := range p.Stages {
			fmt.Fprintf(&b, "    %-36s %5.1f FO4\n", s.Name, s.FO4)
		}
		verdict := "FITS"
		if !p.Fits() {
			verdict = "TOO SLOW"
		}
		fmt.Fprintf(&b, "    total %.1f FO4, slack %+.1f FO4 -> %s\n", p.Total(), p.Slack(), verdict)
	}
	return b.String()
}

// LargestOneCycleTile sweeps the sizes of tile's geometry — its ways,
// block, ports and device, at powers of two from 1KB to 64KB — and
// returns the largest that still meets the single-cycle constraint, the
// paper's design-space result; the zero Config when none does.
func LargestOneCycleTile(tile sram.Config) sram.Config {
	best := sram.Config{}
	for size := 1 << 10; size <= 64<<10; size <<= 1 {
		c := tile
		c.SizeBytes = size
		if Analyze(c).SingleCycle() {
			best = c
		}
	}
	return best
}
