package hier

import (
	"testing"

	"repro/internal/workload"
)

// TestSameWorkloadSameCommitCount: every hierarchy must execute exactly
// the same instruction stream — the comparison is apples to apples.
func TestSameWorkloadSameCommitCount(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	var got []uint64
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		s, _ := buildAndRun(t, kind, prof, 5000, 2)
		got = append(got, s.Core.Committed)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("commit counts diverge across hierarchies: %v", got)
		}
	}
}

// TestMemoryTrafficOrdering: the L-NUCA filters the same traffic the L2
// did, so DRAM read counts should be in the same ballpark across
// hierarchies for the same workload.
func TestMemoryTrafficOrdering(t *testing.T) {
	prof, _ := workload.ByName("462.libquantum") // streaming: plenty of DRAM traffic
	conv, _ := buildAndRun(t, Conventional, prof, 10000, 3)
	ln, _ := buildAndRun(t, LNUCAL3, prof, 10000, 3)
	convReads := conv.Memory.Reads
	lnReads := ln.Memory.Reads
	if convReads == 0 || lnReads == 0 {
		t.Fatal("streaming workload produced no DRAM traffic")
	}
	ratio := float64(lnReads) / float64(convReads)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("DRAM reads diverge: conventional %d vs L-NUCA %d", convReads, lnReads)
	}
}

// TestPointerChaserLeastHelped: mcf-style pointer chasing over huge
// footprints gains the least from an L-NUCA (its misses go to DRAM no
// matter what sits in between) — a sanity anchor for the workload model.
func TestPointerChaserLeastHelped(t *testing.T) {
	mcf, _ := workload.ByName("429.mcf")
	pov, _ := workload.ByName("453.povray")
	gain := func(p workload.Profile) float64 {
		conv, _ := buildAndRun(t, Conventional, p, 10000, 3)
		ln, _ := buildAndRun(t, LNUCAL3, p, 10000, 3)
		return ipc(ln) / ipc(conv)
	}
	gm, gp := gain(mcf), gain(pov)
	// povray is cache-resident: near-zero gain but near-zero loss; mcf
	// should not be the biggest winner.
	if gm > 1.15 {
		t.Fatalf("mcf gained %.1f%% from L-NUCA; pointer chasing should not benefit that much",
			100*(gm-1))
	}
	if gp < 0.93 || gp > 1.15 {
		t.Fatalf("povray ratio %.3f implausible for a cache-resident workload", gp)
	}
}

// TestLNUCADNUCAFiltersBankAccesses: the front L-NUCA must reduce D-NUCA
// bank activity (the Fig. 5(b) dynamic-energy argument).
func TestLNUCADNUCAFiltersBankAccesses(t *testing.T) {
	prof, _ := workload.ByName("482.sphinx3")
	base, _ := buildAndRun(t, DNUCAOnly, prof, 8000, 2)
	front, _ := buildAndRun(t, LNUCADNUCA, prof, 8000, 2)
	if front.DN.BankAccesses >= base.DN.BankAccesses {
		t.Fatalf("L-NUCA front end did not filter D-NUCA activity: %d vs %d bank accesses",
			front.DN.BankAccesses, base.DN.BankAccesses)
	}
}

// TestDeterministicAcrossBuilds: identical options give identical cycle
// counts for every hierarchy (the reproducibility guarantee).
func TestDeterministicAcrossBuilds(t *testing.T) {
	prof, _ := workload.ByName("434.zeusmp")
	for _, kind := range []Kind{Conventional, LNUCAL3, LNUCADNUCA} {
		a, ca := buildAndRun(t, kind, prof, 4000, 3)
		b, cb := buildAndRun(t, kind, prof, 4000, 3)
		if ca != cb || a.Core.Committed != b.Core.Committed {
			t.Fatalf("%v: nondeterministic (%d/%d vs %d/%d cycles/instr)",
				kind, ca, a.Core.Committed, cb, b.Core.Committed)
		}
	}
}
