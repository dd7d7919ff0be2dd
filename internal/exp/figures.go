package exp

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/hier"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ConventionalSpecs returns the Fig. 4 configuration set: the L2-256KB
// baseline and L-NUCAs of 2..4 levels backed by the same L3.
func ConventionalSpecs() []Spec {
	return []Spec{
		{Kind: hier.Conventional},
		{Kind: hier.LNUCAL3, Levels: 2},
		{Kind: hier.LNUCAL3, Levels: 3},
		{Kind: hier.LNUCAL3, Levels: 4},
	}
}

// DNUCASpecs returns the Fig. 5 configuration set: the DN-4x8 baseline
// and L-NUCAs of 2..4 levels in front of it.
func DNUCASpecs() []Spec {
	return []Spec{
		{Kind: hier.DNUCAOnly},
		{Kind: hier.LNUCADNUCA, Levels: 2},
		{Kind: hier.LNUCADNUCA, Levels: 3},
		{Kind: hier.LNUCADNUCA, Levels: 4},
	}
}

// FigIPC renders a Fig. 4(a)/5(a)-style table: harmonic-mean IPC per
// class with gains over the first (baseline) spec.
func FigIPC(title string, specs []Spec, results []Result) *stats.Table {
	t := stats.NewTable(title, "config", "IPC int", "IPC fp", "int gain %", "fp gain %")
	baseInt, baseFP := HarmonicIPC(results, specs[0])
	for _, s := range specs {
		i, f := HarmonicIPC(results, s)
		t.AddRowf(s.Label(), i, f,
			stats.SpeedupPercent(i, baseInt), stats.SpeedupPercent(f, baseFP))
	}
	return t
}

// FigEnergy renders a Fig. 4(b)/5(b)-style table: the four stacked
// buckets normalized to the baseline total, plus overall savings.
func FigEnergy(title string, specs []Spec, results []Result) *stats.Table {
	t := stats.NewTable(title, "config", "dyn.", "sta. L1-RT", "sta. L2-RESTT", "sta. LLC", "total", "savings %")
	base := SumEnergy(results, specs[0])
	for _, s := range specs {
		e := SumEnergy(results, s)
		n := e.NormalizedTo(base)
		t.AddRowf(s.Label(), n[power.Dynamic], n[power.StaticL1RT],
			n[power.StaticMid], n[power.StaticLLC],
			n[0]+n[1]+n[2]+n[3], e.SavingsPercentVs(base))
	}
	return t
}

// Table2 renders the area comparison (no simulation needed).
func Table2() *stats.Table {
	t := stats.NewTable("Table II: conventional and L-NUCA areas",
		"config", "L1+L2 / L-NUCA area (mm2)", "network area (mm2)", "network %")
	t.AddRowf(hier.Label(hier.Conventional, 0), area.Conventional(), 0.0, 0.0)
	for levels := 2; levels <= 4; levels++ {
		r := area.LNUCA(levels)
		t.AddRowf(hier.Label(hier.LNUCAL3, levels), r.TotalMM2, r.NetworkMM2, r.NetworkPct)
	}
	return t
}

// Table3Row carries the Table III quantities for one L-NUCA config.
type Table3Row struct {
	Label       string
	Levels      int
	PctByLevel  map[int][2]float64 // level -> [int%, fp%] of baseline L2 read hits
	AllLevels   [2]float64
	AvgMinIntFP [2]float64 // mean over the class of each cell's avg/min transport latency ratio
}

// Table3 computes the read-hit distribution relative to the baseline's L2
// read hits, and the transport latency ratios, each cell's worked out from
// its measured window's counters. It needs results covering
// the Conventional spec and the three LNUCAL3 specs over the same
// benchmarks.
func Table3(results []Result) []Table3Row {
	// Index results by (spec, bench).
	conv := map[string]Result{}
	for _, r := range results {
		if r.Spec.Kind == hier.Conventional && r.Err == nil {
			conv[r.Bench.Name] = r
		}
	}
	var rows []Table3Row
	for _, levels := range []int{2, 3, 4} {
		spec := Spec{Kind: hier.LNUCAL3, Levels: levels}
		row := Table3Row{
			Label:      spec.Label(),
			Levels:     levels,
			PctByLevel: map[int][2]float64{},
		}
		var sums, ratios [2][]float64 // per class accumulators
		var perLevel [5][2][]float64  // and per level 2..4
		for _, r := range results {
			if r.Spec != spec || r.Err != nil {
				continue
			}
			base, ok := conv[r.Bench.Name]
			if !ok {
				continue
			}
			l2Hits := float64(base.Stats.Counter("l2.read_hits"))
			if l2Hits == 0 {
				continue
			}
			cls := 0
			if r.Bench.Class == workload.FP {
				cls = 1
			}
			all := 0.0
			for lvl := 2; lvl <= levels; lvl++ {
				hits := float64(r.Stats.Counter(fmt.Sprintf("ln.read_hits_le%d", lvl)))
				pct := 100 * hits / l2Hits
				all += pct
				perLevel[lvl][cls] = append(perLevel[lvl][cls], pct)
			}
			sums[cls] = append(sums[cls], all)
			ratios[cls] = append(ratios[cls], r.Stats.Ratio("ln.transport_actual_cycles", "ln.transport_min_cycles"))
		}
		for lvl, acc := range perLevel {
			if len(acc[0])+len(acc[1]) > 0 {
				row.PctByLevel[lvl] = [2]float64{stats.ArithmeticMean(acc[0]), stats.ArithmeticMean(acc[1])}
			}
		}
		row.AllLevels = [2]float64{stats.ArithmeticMean(sums[0]), stats.ArithmeticMean(sums[1])}
		row.AvgMinIntFP = [2]float64{stats.ArithmeticMean(ratios[0]), stats.ArithmeticMean(ratios[1])}
		rows = append(rows, row)
	}
	return rows
}

// Table3Render formats Table3 rows in the paper's layout.
func Table3Render(rows []Table3Row) *stats.Table {
	t := stats.NewTable("Table III: read hits per level relative to baseline L2 read hits (%), and transport latency ratio",
		"config", "Le2 int", "Le2 fp", "Le3 int", "Le3 fp", "Le4 int", "Le4 fp",
		"all int", "all fp", "avg/min int", "avg/min fp")
	for _, r := range rows {
		cell := func(lvl, cls int) interface{} {
			v, ok := r.PctByLevel[lvl]
			if !ok {
				return "—"
			}
			return v[cls]
		}
		t.AddRowf(r.Label,
			cell(2, 0), cell(2, 1), cell(3, 0), cell(3, 1), cell(4, 0), cell(4, 1),
			r.AllLevels[0], r.AllLevels[1], r.AvgMinIntFP[0], r.AvgMinIntFP[1])
	}
	return t
}
