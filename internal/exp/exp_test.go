package exp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/hier"
	"repro/internal/power"
	"repro/internal/workload"
)

// cells runs every benchmark under every spec at seed 1, spec-major — the
// order the figure tables are indexed in — and fails the test on the
// first bad run. The CLI gets the same cells through lightnuca.RunAll,
// which this package sits below.
func cells(t *testing.T, specs []Spec, benches []workload.Profile, mode Mode) []Result {
	t.Helper()
	var out []Result
	for _, s := range specs {
		for _, b := range benches {
			r := RunOne(s, b, mode, 1)
			if r.Err != nil {
				t.Fatalf("%s / %s: %v", s.Label(), b.Name, r.Err)
			}
			out = append(out, r)
		}
	}
	return out
}

// convCells holds the Fig. 4 cells TestFig4Shape and TestTable3Shape both
// read, simulated once.
var (
	convCellsOnce sync.Once
	convCells     []Result
)

func sharedConvCells(t *testing.T) []Result {
	convCellsOnce.Do(func() { convCells = cells(t, ConventionalSpecs(), testBenches(), Quick) })
	return convCells
}

// testBenches picks a small, class-balanced subset so the harness tests
// stay fast; the full suite runs in the benchmarks and the CLI.
func testBenches() []workload.Profile {
	names := []string{"403.gcc", "429.mcf", "462.libquantum",
		"434.zeusmp", "453.povray", "482.sphinx3"}
	var out []workload.Profile
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			panic("missing profile " + n)
		}
		out = append(out, p)
	}
	return out
}

func TestRunOneProducesSaneResult(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	r := RunOne(Spec{Kind: hier.Conventional}, prof, Quick, 1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.IPC <= 0.05 || r.IPC > 4 {
		t.Fatalf("IPC = %v", r.IPC)
	}
	if r.Cycles == 0 || r.Stats == nil {
		t.Fatal("missing measurement")
	}
	// The warmup boundary is chunk-granular, so the measured window can
	// fall slightly short of the nominal budget.
	if got := r.Stats.Counter("core.committed"); got < Quick.Measure*9/10 {
		t.Fatalf("measured %d instructions, want ~%d", got, Quick.Measure)
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestSpecLabels(t *testing.T) {
	cases := map[Spec]string{
		{Kind: hier.Conventional}:          "L2-256KB",
		{Kind: hier.LNUCAL3, Levels: 2}:    "LN2-72KB",
		{Kind: hier.LNUCAL3, Levels: 3}:    "LN3-144KB",
		{Kind: hier.LNUCAL3, Levels: 4}:    "LN4-248KB",
		{Kind: hier.DNUCAOnly}:             "DN-4x8",
		{Kind: hier.LNUCADNUCA, Levels: 2}: "LN2 + DN-4x8",
	}
	for s, want := range cases {
		if got := s.Label(); got != want {
			t.Errorf("Label(%+v) = %q, want %q", s, got, want)
		}
	}
}

// TestFig4Shape is the core reproduction check at test scale: L-NUCA must
// beat the conventional baseline in harmonic-mean IPC for both classes,
// and save total energy.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	specs := ConventionalSpecs()
	results := sharedConvCells(t)
	baseInt, baseFP := HarmonicIPC(results, specs[0])
	for _, s := range specs[1:] {
		i, f := HarmonicIPC(results, s)
		if i <= baseInt {
			t.Errorf("%s: INT HM IPC %.3f not above baseline %.3f", s.Label(), i, baseInt)
		}
		if f <= baseFP {
			t.Errorf("%s: FP HM IPC %.3f not above baseline %.3f", s.Label(), f, baseFP)
		}
	}
	// Energy: every L-NUCA config should save versus the baseline.
	base := SumEnergy(results, specs[0])
	for _, s := range specs[1:] {
		e := SumEnergy(results, s)
		if e.SavingsPercentVs(base) <= 0 {
			t.Errorf("%s: no energy saving (%.1f%%)", s.Label(), e.SavingsPercentVs(base))
		}
	}
	// Static LLC dominates every breakdown, as in Fig. 4(b).
	if base.Get(power.StaticLLC) < base.Get(power.Dynamic) {
		t.Error("baseline static LLC below dynamic; energy model shape wrong")
	}
	// Render the tables to exercise formatting.
	ipcTable := FigIPC("Fig 4(a)", specs, results)
	if ipcTable.NumRows() != len(specs) {
		t.Error("Fig 4(a) table wrong size")
	}
	out := FigEnergy("Fig 4(b)", specs, results).String()
	if !strings.Contains(out, "L2-256KB") {
		t.Error("Fig 4(b) missing baseline row")
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	results := sharedConvCells(t)
	rows := Table3(results)
	if len(rows) != 3 {
		t.Fatalf("Table III rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		// Level 2 must capture a substantial share of former L2 hits and
		// each level's contribution must be positive.
		le2 := r.PctByLevel[2]
		if le2[0] <= 5 || le2[1] <= 5 {
			t.Errorf("%s: Le2 captures int %.1f%% fp %.1f%% of L2 hits; too low",
				r.Label, le2[0], le2[1])
		}
		// Transport ratio very close to 1 (paper: < 1.014).
		for cls, ratio := range r.AvgMinIntFP {
			if ratio < 1.0 || ratio > 1.1 {
				t.Errorf("%s class %d: transport ratio %.4f outside [1, 1.1]",
					r.Label, cls, ratio)
			}
		}
		// Outer levels contribute less than Le2 (temporal ordering).
		if r.Levels >= 3 {
			le3 := r.PctByLevel[3]
			if le3[0] >= le2[0] {
				t.Errorf("%s: Le3 int share %.1f%% >= Le2 %.1f%%", r.Label, le3[0], le2[0])
			}
		}
	}
	// All-levels coverage grows with levels.
	if rows[2].AllLevels[0] <= rows[0].AllLevels[0] {
		t.Errorf("all-levels int share should grow: LN2 %.1f%% vs LN4 %.1f%%",
			rows[0].AllLevels[0], rows[2].AllLevels[0])
	}
	if Table3Render(rows).NumRows() != 3 {
		t.Error("Table III rendering wrong")
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	specs := DNUCASpecs()
	// Smaller subset and a halved window: the D-NUCA runs are by far the
	// slowest in the suite, and the IPC ordering the test asserts is
	// already stable at this scale.
	benches := testBenches()[:4]
	fig5Mode := Mode{Name: "fig5-test", Warmup: Quick.Warmup / 2, Measure: Quick.Measure / 2}
	results := cells(t, specs, benches, fig5Mode)
	baseInt, baseFP := HarmonicIPC(results, specs[0])
	for _, s := range specs[1:] {
		i, f := HarmonicIPC(results, s)
		if i <= baseInt || f <= baseFP {
			t.Errorf("%s: IPC (%.3f, %.3f) not above DN-4x8 (%.3f, %.3f)",
				s.Label(), i, f, baseInt, baseFP)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	tbl := Table2()
	out := tbl.String()
	for _, want := range []string{"L2-256KB", "LN2-72KB", "LN3-144KB", "LN4-248KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

// TestFullModeLBMFinishes: conventional / 470.lbm / full / seed 1 is the
// cell whose L2 used to deadlock — write buffer full, its head waiting on
// an MSHR, every MSHR on a fill, every fill on a buffer slot — and fail
// the documented full-mode figure run with a stall after 241M cycles.
func TestFullModeLBMFinishes(t *testing.T) {
	r := RunOne(Spec{Kind: hier.Conventional}, mustProfile(t, "470.lbm"), Full, 1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}
