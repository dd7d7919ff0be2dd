// Package workload generates the synthetic instruction streams that stand
// in for the paper's SPEC CPU2006 traces (Section IV). Each of the 28
// benchmarks the paper uses (11 integer + 17 floating point; 483.xalancbmk
// is excluded there too) is represented by a named profile controlling:
//
//   - the op mix (loads, stores, branches, FP);
//   - instruction-level parallelism (dependency distances, pointer
//     chasing);
//   - branch predictability (biased sites vs learnable loop patterns);
//   - and, most importantly for this paper, the memory reuse profile: a
//     region mixture that places each access's reuse distance relative to
//     the capacities that separate the evaluated hierarchies (L1-resident
//     "hot", L2/L-NUCA-sized "warm", LLC-sized "cool", and DRAM-bound
//     "cold"/streaming regions).
//
// The substitution preserves what the evaluation measures: where in the
// hierarchy accesses hit, how much latency each hit level costs, and how
// much memory-level parallelism the core can extract.
package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// SuiteClass labels the SPEC sub-suite.
type SuiteClass uint8

const (
	// Int marks SPEC CPU2006 integer benchmarks.
	Int SuiteClass = iota
	// FP marks SPEC CPU2006 floating-point benchmarks.
	FP
)

func (c SuiteClass) String() string {
	if c == Int {
		return "int"
	}
	return "fp"
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name  string
	Class SuiteClass

	// Op mix (fractions of the dynamic stream; the rest are int ALU ops).
	LoadFrac, StoreFrac, BranchFrac, FPFrac float64

	// MeanDepDist is the mean backward dependency distance of ALU/FP ops
	// (geometric); small values serialize, large values expose ILP.
	MeanDepDist int
	// PointerChase is the fraction of loads whose address depends on the
	// previous load (kills memory-level parallelism, e.g. mcf).
	PointerChase float64

	// Memory region mixture (fractions over memory accesses; the rest is
	// cold/streaming). Sizes in KB select which hierarchy level can
	// capture the region.
	HotFrac, WarmFrac, CoolFrac float64
	HotKB, WarmKB, CoolKB       int
	// SeqFrac is the sequential-stream share within cold accesses.
	SeqFrac float64

	// Warm-region skew: real secondary working sets decay with reuse
	// distance, which is what lets the paper's 40KB of Le2 tiles capture
	// 41-59% of all former L2 hits (Table III). WarmFront is the share of
	// warm accesses landing in the hottest WarmFrontKB; WarmMid the share
	// in the next ~96KB; the rest spread over the whole region. Zeros
	// select class defaults (integer working sets are more front-heavy
	// than FP ones, matching Table III's Le2 columns); a literal zero
	// share is expressed with the SkewNone sentinel, since 0 is the
	// "use class default" marker.
	WarmFront, WarmMid float64
	WarmFrontKB        int

	// Branch behaviour: sites with a short learnable pattern vs randomly
	// biased sites.
	BranchSites int
	PatternFrac float64
	BranchBias  float64

	// FPLat overrides the FP latency (0 = core default).
	FPLat uint8
}

// SkewNone marks a warm-skew share as explicitly zero. A plain zero in
// WarmFront/WarmMid means "use the class default" (the common case for
// the catalog), so a profile that genuinely wants no front or mid skew
// sets the field to SkewNone instead.
const SkewNone = -1.0

// warmSkew resolves the effective warm-region shares: class defaults for
// zero fields, 0 for SkewNone, the explicit value otherwise. It is the
// single source of truth shared by Validate and the generator.
func (p Profile) warmSkew() (front, mid float64) {
	front, mid = p.WarmFront, p.WarmMid
	if front == 0 {
		if p.Class == Int {
			front = 0.78
		} else {
			front = 0.62
		}
	}
	if mid == 0 {
		if p.Class == Int {
			mid = 0.17
		} else {
			mid = 0.28
		}
	}
	if front == SkewNone {
		front = 0
	}
	if mid == SkewNone {
		mid = 0
	}
	return front, mid
}

// Validate reports profile inconsistencies.
func (p Profile) Validate() error {
	sumMix := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac
	if sumMix > 1.0001 {
		return fmt.Errorf("workload %s: op mix sums to %v > 1", p.Name, sumMix)
	}
	if p.HotFrac+p.WarmFrac+p.CoolFrac > 1.0001 {
		return fmt.Errorf("workload %s: region mix exceeds 1", p.Name)
	}
	if p.HotKB <= 0 || p.WarmKB <= 0 || p.CoolKB <= 0 {
		return fmt.Errorf("workload %s: non-positive region size", p.Name)
	}
	if p.BranchSites <= 0 {
		return fmt.Errorf("workload %s: no branch sites", p.Name)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"WarmFront", p.WarmFront}, {"WarmMid", p.WarmMid}} {
		if f.v != SkewNone && (f.v < 0 || f.v > 1) {
			return fmt.Errorf("workload %s: %s %v outside [0,1] (use SkewNone for an explicit zero)", p.Name, f.name, f.v)
		}
	}
	// An over-allocated skew would silently make the warm tail
	// unreachable: every warm access would land in the front/mid zones
	// and the region's nominal size would be a lie.
	if front, mid := p.warmSkew(); front+mid > 1.0001 {
		return fmt.Errorf("workload %s: warm skew front %v + mid %v exceeds 1", p.Name, front, mid)
	}
	return nil
}

// Region base addresses keep the four reuse classes disjoint.
const (
	hotBase  = mem.Addr(0x0000_0000)
	warmBase = mem.Addr(0x1000_0000)
	coolBase = mem.Addr(0x2000_0000)
	coldBase = mem.Addr(0x3000_0000)
	coldKB   = 64 << 10 // 64MB: far beyond the 8MB LLC
	lineB    = 32
)

// Generator produces the op stream for a profile. It implements
// cpu.Stream and is infinite; the core's instruction budget bounds runs.
type Generator struct {
	p    Profile
	base mem.Addr // address-space offset (CMP mode: disjoint per core)
	rng  *sim.Rand

	seq          uint64
	lastLoadDist int32 // ops since the previous load
	coldCursor   mem.Addr
	hotCursor    mem.Addr
	warmCursor   mem.Addr

	// branch site state
	patterns [][]bool
	biases   []float64
	siteIdx  []uint32
}

// NewGenerator builds a deterministic generator for p.
func NewGenerator(p Profile, seed uint64) (*Generator, error) {
	return NewGeneratorAt(p, seed, 0)
}

// NewGeneratorAt builds a generator whose whole address space is shifted
// by base: the multi-programmed CMP mode gives every core a disjoint
// address space (base = core index << 32) so private data never aliases
// in the shared LLC, exactly like distinct processes behind distinct page
// tables.
func NewGeneratorAt(p Profile, seed uint64, base mem.Addr) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Class defaults for warm-region skew (see the Profile fields).
	if p.WarmFrontKB == 0 {
		p.WarmFrontKB = 20
	}
	p.WarmFront, p.WarmMid = p.warmSkew()
	g := &Generator{p: p, base: base, rng: sim.NewRand(seed ^ hashName(p.Name))}
	g.patterns = make([][]bool, p.BranchSites)
	g.biases = make([]float64, p.BranchSites)
	g.siteIdx = make([]uint32, p.BranchSites)
	for i := range g.patterns {
		if g.rng.Float64() < p.PatternFrac {
			// Loop-like pattern: N-1 taken, then one not-taken.
			n := 3 + g.rng.Intn(6)
			pat := make([]bool, n)
			for j := 0; j < n-1; j++ {
				pat[j] = true
			}
			g.patterns[i] = pat
		} else {
			g.biases[i] = p.BranchBias
		}
	}
	return g, nil
}

// MustGenerator panics on profile errors (wiring code).
func MustGenerator(p Profile, seed uint64) *Generator {
	g, err := NewGenerator(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// zone classifies where an address landed; far zones carry streaming
// semantics (independent, overlappable accesses).
type zone uint8

const (
	zHot zone = iota
	zWarmFront
	zWarmMid
	zWarmTail
	zCool
	zCold
)

// Next implements cpu.Stream.
func (g *Generator) Next() (cpu.Op, bool) {
	g.seq++
	g.lastLoadDist++
	r := g.rng.Float64()
	p := &g.p
	switch {
	case r < p.LoadFrac:
		return g.loadOp(), true
	case r < p.LoadFrac+p.StoreFrac:
		addr, _ := g.address()
		return cpu.Op{Class: cpu.ClassStore, Addr: addr, Dep1: g.depDist()}, true
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		return g.branchOp(), true
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
		return cpu.Op{Class: cpu.ClassFP, Dep1: g.consumerDep(0.6), Dep2: g.depDist(), Lat: p.FPLat}, true
	default:
		return cpu.Op{Class: cpu.ClassInt, Dep1: g.consumerDep(0.45), Dep2: g.depDist()}, true
	}
}

// consumerDep biases computation toward consuming the most recent load
// (load-use chains), which is what puts cache hit latency on the critical
// path of real code.
func (g *Generator) consumerDep(bias float64) int32 {
	if g.lastLoadDist > 0 && g.lastLoadDist < 90 && g.rng.Float64() < bias {
		return g.lastLoadDist
	}
	return g.depDist()
}

// loadOp builds a load. Dependency structure is coupled to locality:
// near-reuse loads (hot, warm front) sit on dependence chains and are
// latency-critical, while far accesses (warm tail, cool, cold) behave
// like loop-parallel streams the out-of-order window can overlap — the
// reuse/criticality correlation that makes small fast levels profitable
// (Section II: latencies inversely proportional to temporal locality).
func (g *Generator) loadOp() cpu.Op {
	addr, z := g.address()
	op := cpu.Op{Class: cpu.ClassLoad, Addr: addr}
	switch {
	case g.rng.Float64() < g.p.PointerChase && g.lastLoadDist < 120:
		op.Dep1 = g.lastLoadDist // address chained to the previous load
	case z >= zWarmTail && g.rng.Float64() < 0.95:
		op.Dep1 = 0 // independent streaming access
	default:
		op.Dep1 = g.depDist()
	}
	g.lastLoadDist = 0
	return op
}

// branchOp picks a site and resolves its direction.
func (g *Generator) branchOp() cpu.Op {
	site := g.rng.Intn(g.p.BranchSites)
	var taken bool
	if pat := g.patterns[site]; pat != nil {
		taken = pat[g.siteIdx[site]%uint32(len(pat))]
		g.siteIdx[site]++
	} else {
		taken = g.rng.Bool(g.biases[site])
	}
	return cpu.Op{
		Class: cpu.ClassBranch,
		PC:    uint64(site+1) * 16,
		Taken: taken,
		// Load-compare-branch idioms couple redirect resolution to cache
		// latency.
		Dep1: g.consumerDep(0.3),
	}
}

// depDist draws a geometric-ish dependency distance with the profile's
// mean; 0 (no dependency) when the mean allows full independence.
func (g *Generator) depDist() int32 {
	m := g.p.MeanDepDist
	if m <= 0 {
		return 0
	}
	// Geometric with success probability 1/m, capped to stay inside a
	// 128-entry ROB window: 1 + the run of draws above 1/m, at most 96.
	d := int32(1 + g.rng.RunAbove(1.0/float64(m), 95))
	if g.rng.Float64() < 0.25 {
		return 0 // a quarter of ops start fresh chains
	}
	return d
}

// address draws a memory address from the region mixture, shifted into
// the generator's address space, and reports the zone it landed in.
func (g *Generator) address() (mem.Addr, zone) {
	a, z := g.rawAddress()
	return a + g.base, z
}

// rawAddress draws from the region mixture in the canonical (base-0)
// address space.
func (g *Generator) rawAddress() (mem.Addr, zone) {
	p := &g.p
	r := g.rng.Float64()
	switch {
	case r < p.HotFrac:
		// Mostly sequential within a tiny region: L1-resident.
		if g.rng.Bool(0.7) {
			g.hotCursor = (g.hotCursor + lineB/2) % mem.Addr(p.HotKB<<10)
			return hotBase + g.hotCursor, zHot
		}
		return hotBase + mem.Addr(g.rng.Intn(p.HotKB<<10))&^mem.Addr(lineB-1), zHot
	case r < p.HotFrac+p.WarmFrac:
		// The contested region: bigger than L1, capturable by an L-NUCA
		// or an L2, with decaying reuse (front / mid / tail zones).
		warmBytes := p.WarmKB << 10
		frontB := p.WarmFrontKB << 10
		if frontB > warmBytes {
			frontB = warmBytes
		}
		midB := frontB + 96<<10
		if midB > warmBytes {
			midB = warmBytes
		}
		r2 := g.rng.Float64()
		var off int
		var z zone
		switch {
		case r2 < p.WarmFront:
			// Quadratic skew inside the front: reuse density decays with
			// distance, so the hottest lines bounce between the r-tile
			// and the innermost tiles (Table III's Le2 concentration).
			r3 := g.rng.Float64()
			off = int(float64(frontB) * r3 * r3)
			z = zWarmFront
		case r2 < p.WarmFront+p.WarmMid && midB > frontB:
			off = frontB + g.rng.Intn(midB-frontB)
			z = zWarmMid
		default:
			off = g.rng.Intn(warmBytes)
			z = zWarmTail
		}
		return warmBase + mem.Addr(off)&^mem.Addr(lineB-1), z
	case r < p.HotFrac+p.WarmFrac+p.CoolFrac:
		// LLC-sized: misses every L2-class structure, hits the 8MB level.
		return coolBase + mem.Addr(g.rng.Intn(p.CoolKB<<10))&^mem.Addr(lineB-1), zCool
	default:
		// Cold: streaming or DRAM-random.
		if g.rng.Float64() < p.SeqFrac {
			// Streams step sub-line: ~4 touches per 32B block, so most
			// stream accesses hit the line the previous one fetched.
			g.coldCursor = (g.coldCursor + lineB/4) % mem.Addr(coldKB<<10)
			return coldBase + g.coldCursor, zCold
		}
		return coldBase + mem.Addr(g.rng.Intn(coldKB<<10))&^mem.Addr(lineB-1), zCold
	}
}

var _ cpu.Stream = (*Generator)(nil)

// HotRange returns the base address and size (KB) of the profile's
// L1-resident region; used for functional cache warmup.
func HotRange(p Profile) (mem.Addr, int) { return hotBase, p.HotKB }

// WarmRange returns the contested L2/L-NUCA-sized region.
func WarmRange(p Profile) (mem.Addr, int) { return warmBase, p.WarmKB }

// CoolRange returns the LLC-sized region.
func CoolRange(p Profile) (mem.Addr, int) { return coolBase, p.CoolKB }
