package hier

import (
	"testing"

	"repro/internal/power"
	"repro/internal/workload"
)

func buildAndRun(t *testing.T, kind Kind, prof workload.Profile, instr uint64, levels int) (*System, uint64) {
	t.Helper()
	s, err := Build(kind, prof, Options{LNUCALevels: levels, Seed: 42, MaxInstr: instr})
	if err != nil {
		t.Fatal(err)
	}
	s.Prewarm()
	cycles := s.Run(20_000_000)
	if !s.Core.Done() {
		t.Fatalf("%v: core committed only %d of %d instructions in %d cycles",
			kind, s.Core.Committed, instr, cycles)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return s, cycles
}

// ipc and loadLatency are s's core figures, worked out from its counters.
func ipc(s *System) float64 { return s.Collect().Ratio("core.committed", "core.cycles") }
func loadLatency(s *System) float64 {
	return s.Collect().Ratio("core.load_latency_sum", "core.load_latency_count")
}

func TestAllHierarchiesComplete(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		s, cycles := buildAndRun(t, kind, prof, 8000, 3)
		if ipc(s) <= 0.05 || ipc(s) > 4 {
			t.Errorf("%v: implausible IPC %.3f", kind, ipc(s))
		}
		if cycles == 0 {
			t.Errorf("%v: zero cycles", kind)
		}
	}
}

func TestNamesDistinguishConfigs(t *testing.T) {
	if l2, l3 := Label(LNUCAL3, 2), Label(LNUCAL3, 3); l2 != "LN2-72KB" || l3 != "LN3-144KB" {
		t.Fatalf("labels = %q, %q; want LN2-72KB, LN3-144KB", l2, l3)
	}
	if ld := Label(LNUCADNUCA, 2); ld != "LN2 + DN-4x8" {
		t.Fatalf("label = %q, want LN2 + DN-4x8", ld)
	}
}

func TestLNUCAFasterThanConventionalOnWarmWorkload(t *testing.T) {
	// A warm-heavy profile is exactly where the L-NUCA should shine: its
	// Le2/Le3 tiles serve former L2 hits at lower latency.
	prof, _ := workload.ByName("482.sphinx3")
	conv, _ := buildAndRun(t, Conventional, prof, 12000, 3)
	ln, _ := buildAndRun(t, LNUCAL3, prof, 12000, 3)
	if ipc(ln) <= ipc(conv) {
		t.Fatalf("LN3 IPC %.3f not above conventional %.3f (avg load lat %.1f vs %.1f)",
			ipc(ln), ipc(conv),
			loadLatency(ln), loadLatency(conv))
	}
	if loadLatency(ln) >= loadLatency(conv) {
		t.Fatalf("LN3 load latency %.2f not below conventional %.2f",
			loadLatency(ln), loadLatency(conv))
	}
}

func TestPrewarmEstablishesResidency(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	s, err := Build(Conventional, prof, Options{MaxInstr: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s.Prewarm()
	hotB, _ := workload.HotRange(prof)
	warmB, _ := workload.WarmRange(prof)
	if !s.L1.Bank().Probe(hotB) {
		t.Error("hot region not in L1 after prewarm")
	}
	if !s.L2.Bank().Probe(warmB) {
		t.Error("warm region not in L2 after prewarm")
	}
	if !s.L3.Bank().Probe(warmB) || !s.L3.Bank().Probe(hotB) {
		t.Error("L3 not inclusive after prewarm")
	}
}

func TestPrewarmLNUCAKeepsExclusion(t *testing.T) {
	prof, _ := workload.ByName("434.zeusmp") // large warm region
	s, err := Build(LNUCAL3, prof, Options{LNUCALevels: 3, MaxInstr: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s.Prewarm()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("prewarm broke exclusion: %v", err)
	}
	// Some warm lines must be resident in tiles.
	warmB, _ := workload.WarmRange(prof)
	found := false
	for id := 0; id < s.Fabric.Geometry().NumTiles(); id++ {
		if s.Fabric.TileBank(id).Probe(warmB) {
			found = true
		}
	}
	if !found {
		t.Error("warm region absent from every tile after prewarm")
	}
}

func TestEnergyBreakdownShape(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	conv, cyc := buildAndRun(t, Conventional, prof, 8000, 3)
	set := conv.Collect()
	b := conv.Energy(set, cyc)
	if b.Total() <= 0 {
		t.Fatal("zero total energy")
	}
	// The paper: static dominates, and the L3's 600 mW dwarfs the rest.
	if b.Get(power.StaticLLC) <= b.Get(power.StaticL1RT) ||
		b.Get(power.StaticLLC) <= b.Get(power.StaticMid) {
		t.Fatalf("L3 static should dominate: %v", b)
	}
	ln, cyc2 := buildAndRun(t, LNUCAL3, prof, 8000, 3)
	b2 := ln.Energy(ln.Collect(), cyc2)
	if b2.Total() <= 0 {
		t.Fatal("zero L-NUCA energy")
	}
	if b2.Get(power.StaticMid) <= 0 {
		t.Fatal("tile leakage not accounted")
	}
}

func TestDNUCAEnergyUsesBankCounts(t *testing.T) {
	prof, _ := workload.ByName("429.mcf")
	s, cyc := buildAndRun(t, DNUCAOnly, prof, 6000, 3)
	b := s.Energy(s.Collect(), cyc)
	if b.Get(power.Dynamic) <= 0 {
		t.Fatal("no dynamic energy for D-NUCA run")
	}
	// D-NUCA static: 32 banks x 33.5 mW > L3's 600 mW.
	if b.Get(power.StaticLLC) <= 0 {
		t.Fatal("no D-NUCA leakage")
	}
	if b.Get(power.StaticMid) != 0 {
		t.Fatal("DNUCAOnly has no mid level")
	}
}

func TestBuildValidation(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	if _, err := Build(LNUCAL3, prof, Options{LNUCALevels: 1}); err == nil {
		t.Fatal("1-level L-NUCA must be rejected")
	}
	if _, err := Build(Kind(99), prof, Options{}); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
	var bad workload.Profile
	if _, err := Build(Conventional, bad, Options{}); err == nil {
		t.Fatal("invalid profile must be rejected")
	}
}

func TestCollectHasAllSections(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	s, _ := buildAndRun(t, LNUCADNUCA, prof, 5000, 2)
	set := s.Collect()
	for _, key := range []string{"core.committed", "ln.searches", "dn.reads", "mem.reads"} {
		if set.Counter(key) == 0 && key != "mem.reads" {
			t.Errorf("counter %s missing or zero:\n", key)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Conventional: "L2-256KB", LNUCAL3: "LN+L3",
		DNUCAOnly: "DN-4x8", LNUCADNUCA: "LN+DN-4x8",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), s)
		}
	}
}
