// Package hier assembles the four cache hierarchies the paper evaluates
// (Fig. 1): the conventional three-level baseline, the L-NUCA backed by
// the same L3, the D-NUCA baseline, and the L-NUCA backed by the D-NUCA.
// There is one machine, System, with N >= 1 cores: Build wires the
// single-core one, BuildCMP the same machine with an arbiter in front of
// the shared last level and "c<i>."-prefixed statistics.
//
// Both build from one Table I (TableI), which also prices run statistics
// as the Fig. 4(b)/5(b) energy breakdowns.
package hier

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dnuca"
	"repro/internal/lnuca"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MaxCMPCores bounds a CMP build; the paper-scale LLC stops making sense
// beyond 8 contenders.
const MaxCMPCores = 8

// coreAddrStride separates per-core address spaces (4GB each, far beyond
// any region a profile touches).
const coreAddrStride = mem.Addr(1) << 32

// Options tune a built system.
type Options struct {
	// LNUCALevels selects 2..6 (72KB..552KB) fabrics, default 3; ignored
	// otherwise.
	LNUCALevels int
	// Machine overrides Table I rows (ResolveMachine); zero is Table I.
	Machine Machine
	// Seed drives all randomized behaviour (routing, workload).
	Seed uint64
	// MaxInstr bounds committed instructions (the paper runs 100M after
	// warmup; scaled-down runs preserve the shape). Build only.
	MaxInstr uint64
	// ShuffleRegistration, when non-zero, registers components with the
	// kernel in a seeded permuted order. Results must not change — the
	// two-phase kernel guarantees order independence — so tests use this
	// to prove the wiring keeps that property.
	ShuffleRegistration uint64
	// Ungated disables the kernel's quiescence fast-forward, forcing
	// plain lockstep stepping. Results are bit-identical either way;
	// the gating-equivalence tests and benchmarks use it.
	Ungated bool
	// Stream, when non-nil, feeds the core instead of a fresh synthetic
	// generator for prof: the hook the trace subsystem uses to record
	// (a capturing wrapper around the generator) and to replay (a
	// recorded trace). prof still selects the functional prewarm, so a
	// replay warms exactly what the recording run warmed. Build only.
	Stream cpu.Stream
}

// CMPOptions tunes a BuildCMP machine: Options without the single-core
// MaxInstr and Stream, which BuildCMP rejects.
type CMPOptions = Options

// System is one fully-wired simulated machine: N >= 1 out-of-order
// cores, each with its own private first levels (L1+L2, or an L-NUCA
// fabric, per the four Fig. 1 organizations), over one 8MB last level —
// an SRAM L3 or a D-NUCA — and, behind it, the single main-memory
// channel.
//
// Each core runs its own benchmark in a disjoint address space (core
// index << 32), the standard multi-programmed methodology: no sharing,
// pure capacity and bandwidth contention, as in the CMP NUCA studies
// this mode is modeled after.
type System struct {
	Kind   Kind
	Kernel *sim.Kernel
	Cores  []*cpu.Core
	// Per-core private levels (empty where the kind has none).
	L1s     []*cache.Controller // conventional / D-NUCA hierarchies
	L2s     []*cache.Controller // conventional only
	Fabrics []*lnuca.Fabric     // LNUCAL3 and LNUCADNUCA
	// Core 0 and its private levels: the whole private side of a Build
	// machine.
	Core   *cpu.Core
	L1     *cache.Controller
	L2     *cache.Controller
	Fabric *lnuca.Fabric
	// Last level: L3 for Conventional/LNUCAL3, DN otherwise.
	L3 *cache.Controller
	DN *dnuca.DNUCA
	// Arb sits between the private sides and the last level of a BuildCMP
	// machine (nil in a Build one): a round-robin bandwidth arbiter,
	// which is where inter-core interference becomes visible — its
	// grant/conflict counters are the contention statistics.
	Arb    *mem.Arbiter
	Memory *mem.MainMemory

	ids      mem.IDSource
	table    TableI // what the machine was built from, for Energy
	levels   int
	profiles []workload.Profile
	supplies []*cpu.Ahead // the cores' run-ahead supplies, for Close
}

// CMPSystem is a System built by BuildCMP.
type CMPSystem = System

// CoreOffset returns core i's address-space base.
func CoreOffset(i int) mem.Addr { return mem.Addr(i) * coreAddrStride }

// coreSeed derives core i's seed from the run seed; distinct per core so
// two copies of one benchmark do not run in lockstep.
func coreSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9E3779B97F4A7C15
}

// streamKey names a generated stream for cpu.RunAhead's memo: what
// workload.NewGeneratorAt reads. The profile is held by value, so an
// override is a stream of its own.
type streamKey struct {
	prof workload.Profile
	seed uint64
	base mem.Addr
}

// Build wires a single-core system running the given workload profile:
// the private side of the kind wired straight to the last level.
func Build(kind Kind, prof workload.Profile, opt Options) (*System, error) {
	return build(kind, []workload.Profile{prof}, opt, false)
}

// BuildCMP wires a CMP running one workload profile per core. Every core
// gets the private side of the chosen Fig. 1 organization; the 8MB last
// level and the memory channel are shared through the arbiter, component
// names carry the core index and statistics a "c<i>." prefix.
func BuildCMP(kind Kind, profs []workload.Profile, opt CMPOptions) (*CMPSystem, error) {
	n := len(profs)
	if n < 1 || n > MaxCMPCores {
		return nil, fmt.Errorf("hier: CMP wants 1..%d cores, got %d", MaxCMPCores, n)
	}
	// Cores never stop the kernel on their own (MaxInstr 0): in a
	// multi-programmed run a finished core keeps executing to keep
	// pressure on the shared levels while slower cores measure.
	if opt.MaxInstr != 0 || opt.Stream != nil {
		return nil, fmt.Errorf("hier: MaxInstr and Stream are single-core options, not a CMP's")
	}
	return build(kind, profs, opt, true)
}

// build is the one machine builder: per profile a core and the private
// side of the kind (core i seeded coreSeed(seed, i), its address space
// at CoreOffset(i)), then the last level and memory once. shared puts
// the arbiter in front of the last level and the core index into
// component names; without it the single private side feeds the last
// level directly. A generated stream runs ahead (cpu.RunAhead), keyed by
// its streamKey; a build that fails closes the supplies it started.
func build(kind Kind, profs []workload.Profile, opt Options, shared bool) (_ *System, err error) {
	levels, err := Levels(kind, opt.LNUCALevels)
	if err != nil {
		return nil, err
	}
	t := DefaultTableI()
	s := &System{
		Kind:     kind,
		Kernel:   sim.NewKernel(),
		table:    t,
		levels:   levels,
		profiles: profs,
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	org := kinds[kind]

	var comps []sim.Component
	upPorts := make([]*mem.Port, len(profs))
	for i, prof := range profs {
		seed := coreSeed(opt.Seed, i)
		coreName, suffix := "core", ""
		if shared {
			coreName, suffix = fmt.Sprintf("core%d", i), fmt.Sprintf(".%d", i)
		}
		stream := opt.Stream
		if stream == nil {
			gen, err := workload.NewGeneratorAt(prof, seed, CoreOffset(i))
			if err != nil {
				return nil, err
			}
			ahead := cpu.RunAhead(gen, opt.MaxInstr, streamKey{prof, seed, CoreOffset(i)})
			s.supplies = append(s.supplies, ahead)
			stream = ahead
		}
		cpuPort := mem.NewPort(t.PortDepth, t.PortDepth)
		core := cpu.New(coreName, t.Core, stream, cpuPort, &s.ids, opt.MaxInstr)
		s.Cores = append(s.Cores, core)
		comps = append(comps, core)

		llcSide := mem.NewPort(t.PortDepth, t.PortDepth)
		l1cfg, l2cfg := t.L1, t.L2
		l1cfg.Name += suffix
		l2cfg.Name += suffix
		switch {
		case org.hasLNUCA:
			fcfg := lnuca.DefaultConfig(levels)
			fcfg.Name += suffix
			fcfg.Seed = seed | 1
			opt.Machine.apply(&fcfg)
			fab, err := lnuca.NewFabric(fcfg, cpuPort, llcSide, &s.ids)
			if err != nil {
				return nil, err
			}
			s.Fabrics = append(s.Fabrics, fab)
			comps = append(comps, fab)
		case org.hasL2:
			l1l2 := mem.NewPort(t.PortDepth, t.PortDepth)
			l1 := cache.NewController(l1cfg, cpuPort, l1l2, &s.ids)
			l2 := cache.NewController(l2cfg, l1l2, llcSide, &s.ids)
			s.L1s = append(s.L1s, l1)
			s.L2s = append(s.L2s, l2)
			comps = append(comps, l1, l2)
		default:
			l1 := cache.NewController(l1cfg, cpuPort, llcSide, &s.ids)
			s.L1s = append(s.L1s, l1)
			comps = append(comps, l1)
		}
		upPorts[i] = llcSide
	}
	s.Core = s.Cores[0]
	if s.L1s != nil {
		s.L1 = s.L1s[0]
	}
	if s.L2s != nil {
		s.L2 = s.L2s[0]
	}
	if s.Fabrics != nil {
		s.Fabric = s.Fabrics[0]
	}

	// The last level's upstream port: the one private side's own, or the
	// arbiter's shared side.
	llcUp := upPorts[0]
	if shared {
		llcUp = mem.NewPort(2*len(profs), 2*len(profs))
		arb, err := mem.NewArbiter(mem.ArbiterConfig{Name: "llc-arb"}, upPorts, llcUp)
		if err != nil {
			return nil, err
		}
		s.Arb = arb
		comps = append(comps, arb)
	}

	memPort := mem.NewPort(t.PortDepth, t.PortDepth)
	if org.dnucaLast {
		s.DN, err = dnuca.New(t.DNUCA, llcUp, memPort, &s.ids)
		if err != nil {
			return nil, err
		}
		comps = append(comps, s.DN)
	} else {
		s.L3 = cache.NewController(t.L3, llcUp, memPort, &s.ids)
		comps = append(comps, s.L3)
	}
	s.Memory = mem.NewMainMemory("dram", t.Memory, memPort)
	comps = append(comps, s.Memory)
	registerAll(s.Kernel, comps, opt.ShuffleRegistration)
	s.Kernel.SetGating(!opt.Ungated)
	return s, nil
}

// registerAll registers comps with the kernel, in a seeded permuted
// order when shuffle is non-zero (results must be order-independent; the
// equivalence tests prove it).
func registerAll(k *sim.Kernel, comps []sim.Component, shuffle uint64) {
	if shuffle != 0 {
		perm := make([]int, len(comps))
		sim.NewRand(shuffle).Perm(perm)
		shuffled := make([]sim.Component, len(comps))
		for i, j := range perm {
			shuffled[i] = comps[j]
		}
		comps = shuffled
	}
	for _, c := range comps {
		k.MustRegister(c)
	}
}

// Prewarm performs functional warmup: it installs each core's hot, warm
// and cool regions into the structures that would hold them in steady
// state — its own private levels and the last level all cores share —
// the same role SimPoint-style checkpoint warming plays for the paper's
// 200M-instruction warmup. A region that goes whole into one bank is
// preloaded set by set (cache.Bank.PreloadRange); tiles and D-NUCA banks
// are chosen per line by free space, so those go in line by line.
func (s *System) Prewarm() {
	for i, prof := range s.profiles {
		off := CoreOffset(i)
		hotB, hotKB := workload.HotRange(prof)
		warmB, warmKB := workload.WarmRange(prof)
		coolB, coolKB := workload.CoolRange(prof)
		hotB, warmB, coolB = hotB+off, warmB+off, coolB+off

		if s.Fabrics != nil {
			s.Fabrics[i].RTileBank().PreloadRange(hotB, hotKB<<10)
			prewarmTiles(s.Fabrics[i], warmB, warmKB)
		} else {
			s.L1s[i].Bank().PreloadRange(hotB, hotKB<<10)
		}
		if s.L2s != nil {
			s.L2s[i].Bank().PreloadRange(warmB, warmKB<<10)
		}
		if s.L3 != nil {
			prewarmLLC(s.L3, hotB, hotKB, warmB, warmKB, coolB, coolKB)
		} else {
			prewarmDN(s.DN, hotB, hotKB, warmB, warmKB, coolB, coolKB)
		}
	}
}

// prewarmLLC installs cool, then warm, then hot into an inclusive SRAM
// LLC, so the hottest region ends up most recently used.
func prewarmLLC(l3 *cache.Controller, hotB mem.Addr, hotKB int, warmB mem.Addr, warmKB int, coolB mem.Addr, coolKB int) {
	l3.Bank().PreloadRange(coolB, coolKB<<10)
	l3.Bank().PreloadRange(warmB, warmKB<<10)
	l3.Bank().PreloadRange(hotB, hotKB<<10)
}

// prewarmTiles spreads warm-region lines across the fabric tiles,
// innermost levels first, one copy per line (content exclusion).
func prewarmTiles(f *lnuca.Fabric, base mem.Addr, kb int) {
	g := f.Geometry()
	// Order sites by latency: hotter lines closer to the r-tile.
	var order []int
	for lat := 3; lat <= g.MaxLatency(); lat++ {
		for i := range g.Sites {
			if g.Sites[i].Latency == lat {
				order = append(order, g.Sites[i].ID)
			}
		}
	}
	if len(order) == 0 {
		return
	}
	idx, block := 0, f.TileBank(order[0]).Config().BlockBytes
	for off := 0; off < kb<<10; off += block {
		line := base + mem.Addr(off)
		// Try successive tiles until one has set space (exclusion: at
		// most one copy).
		placed := false
		for try := 0; try < len(order) && !placed; try++ {
			b := f.TileBank(order[(idx+try)%len(order)])
			if b.HasSpace(line) {
				b.Fill(line, false)
				placed = true
			}
		}
		idx++
	}
}

// prewarmDN installs regions into the D-NUCA: warm in the closest rows,
// cool behind, matching post-migration steady state.
func prewarmDN(dn *dnuca.DNUCA, hotB mem.Addr, hotKB int, warmB mem.Addr, warmKB int, coolB mem.Addr, coolKB int) {
	cfg := dn.Config()
	put := func(base mem.Addr, kb int, startRow int) {
		for off := 0; off < kb<<10; off += cfg.Bank.BlockBytes {
			line := base + mem.Addr(off)
			col := dn.Column(line)
			for r := startRow; r < cfg.Rows; r++ {
				b := dn.BankArray(col, r)
				if b.HasSpace(line) {
					b.Fill(line, false)
					break
				}
			}
		}
	}
	put(hotB, hotKB, 0)
	put(warmB, warmKB, 0)
	put(coolB, coolKB, 1)
}

// Run advances the system by at most maxCycles (fewer when a core
// reaches MaxInstr or exhausts its stream), returning the executed cycle
// count.
func (s *System) Run(maxCycles uint64) uint64 {
	return s.Kernel.Run(maxCycles)
}

// Close stops the cores' run-ahead supplies; the system must not run
// after it. The garbage collector closes a system dropped unclosed.
func (s *System) Close() {
	for _, a := range s.supplies {
		a.Close()
	}
}

// MinCommitted returns the smallest committed-instruction count across
// cores: the multi-programmed window boundary tracker.
func (s *System) MinCommitted() uint64 {
	min := s.Cores[0].Committed
	for _, c := range s.Cores[1:] {
		if c.Committed < min {
			min = c.Committed
		}
	}
	return min
}

// Collect gathers every component's statistics. Behind an arbiter each
// core's private side is namespaced under "c<i>." and the arbiter's
// counters join the set; shared structures are always global.
func (s *System) Collect() *stats.Set {
	set := stats.NewSet()
	for i, core := range s.Cores {
		per := set
		if s.Arb != nil {
			per = stats.NewSet()
		}
		core.Collect("core", per)
		if s.L1s != nil {
			s.L1s[i].Collect("l1", per)
		}
		if s.L2s != nil {
			s.L2s[i].Collect("l2", per)
		}
		if s.Fabrics != nil {
			s.Fabrics[i].Collect("ln", per)
		}
		if s.Arb != nil {
			set.MergePrefixed(fmt.Sprintf("c%d", i), per)
		}
	}
	if s.L3 != nil {
		s.L3.Collect("l3", set)
	}
	if s.DN != nil {
		s.DN.Collect("dn", set)
	}
	if s.Arb != nil {
		for i := range s.Arb.Granted {
			set.Add(fmt.Sprintf("arb.grants.c%d", i), s.Arb.Granted[i])
			set.Add(fmt.Sprintf("arb.conflicts.c%d", i), s.Arb.Conflicts[i])
		}
		set.Add("arb.resp_routed", s.Arb.RespRouted)
	}
	set.Add("mem.reads", s.Memory.Reads)
	set.Add("mem.writebacks", s.Memory.Writebacks)
	return set
}

// Energy converts a (possibly delta) statistics set from this system into
// the Fig. 4(b)/5(b) breakdown. cycles is the measured window length.
func (s *System) Energy(set *stats.Set, cycles uint64) power.Breakdown {
	var a power.Accountant
	e := &s.table.energy
	// The private side, then the last level.
	a.AddLeakage(power.StaticL1RT, e.l1.leakMW)
	if s.Fabric != nil {
		s.addFabricDynamic(&a, set)
		tiles := float64(lnuca.NumTilesForLevels(s.levels))
		a.AddLeakage(power.StaticMid, tiles*(e.tile.leakMW+e.routerLeakPerTileMW))
	} else {
		a.AddDynamicPJ(float64(set.Counter("l1.bank_accesses")) * e.l1.readPJ)
		if s.L2 != nil {
			a.AddDynamicPJ(float64(set.Counter("l2.bank_accesses")) * e.l2.readPJ)
			a.AddLeakage(power.StaticMid, e.l2.leakMW)
		}
	}
	if s.DN != nil {
		dn := s.DN.Config()
		a.AddDynamicPJ(float64(set.Counter("dn.bank_accesses")) * e.dnBank.readPJ)
		a.AddDynamicPJ(float64(set.Counter("dn.net_flit_hops")) * s.table.DNUCALink.TraversalPJ())
		a.AddLeakage(power.StaticLLC, float64(dn.Rows*dn.Cols)*e.dnBank.leakMW)
	} else {
		a.AddDynamicPJ(float64(set.Counter("l3.bank_accesses")) * e.l3.readPJ)
		a.AddLeakage(power.StaticLLC, e.l3.leakMW)
	}
	return a.Finish(cycles)
}

// addFabricDynamic charges the L-NUCA's arrays and networks.
func (s *System) addFabricDynamic(a *power.Accountant, set *stats.Set) {
	e, search, transport := &s.table.energy, s.table.SearchLink, s.table.TransportLink
	rtAccesses := set.Counter("ln.rt_reads") + set.Counter("ln.rt_writes") + set.Counter("ln.rt_fills")
	a.AddDynamicPJ(float64(rtAccesses) * e.l1.readPJ)
	// Tile arrays: misses cost the tag path, hits read data, fills and
	// evictions move whole blocks.
	lookups := set.Counter("ln.search_lookups")
	var hits uint64
	for lvl := 2; lvl <= s.levels; lvl++ {
		hits += set.Counter(fmt.Sprintf("ln.hits_le%d", lvl))
	}
	a.AddDynamicPJ(float64(lookups) * e.tileTagProbePJ)
	a.AddDynamicPJ(float64(hits) * e.tile.readPJ)
	a.AddDynamicPJ(float64(set.Counter("ln.u_compares")) * e.uComparePJ)
	// Networks (Orion-style event energy).
	a.AddDynamicPJ(float64(set.Counter("ln.search_traversals")) * search.TraversalPJ())
	a.AddDynamicPJ(float64(set.Counter("ln.transport_hops")+set.Counter("ln.transport_delivered")) * transport.TraversalPJ())
	a.AddDynamicPJ(float64(set.Counter("ln.replacement_hops")) * (transport.TraversalPJ() + e.tileFillPJ))
}

// CheckInvariants verifies per-fabric structural invariants, the
// D-NUCA mesh's bookkeeping and, behind an arbiter, that every response
// went back to the core that asked for it (used by tests).
func (s *System) CheckInvariants() error {
	for i, f := range s.Fabrics {
		if err := f.CheckExclusion(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	if s.DN != nil {
		if err := s.DN.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: %w", s.DN.Name(), err)
		}
	}
	if s.Arb != nil && s.Arb.RespOrphans != 0 {
		return fmt.Errorf("%s: dropped %d responses that matched no forwarded read", s.Arb.Name(), s.Arb.RespOrphans)
	}
	return nil
}
