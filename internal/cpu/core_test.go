package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// sliceStream replays a fixed op sequence, optionally repeating.
type sliceStream struct {
	ops    []Op
	i      int
	repeat bool
}

func (s *sliceStream) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		if !s.repeat || len(s.ops) == 0 {
			return Op{}, false
		}
		s.i = 0
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// fastMem responds to reads on a port after a fixed delay.
type fastMem struct {
	port    *mem.Port
	delay   sim.Cycle
	pending []struct {
		r  mem.Resp
		at sim.Cycle
	}
	Reads, Writes uint64
}

func (m *fastMem) Name() string { return "fastmem" }
func (m *fastMem) Eval(k *sim.Kernel) {
	now := k.Cycle()
	for {
		req, ok := m.port.Down.Pop()
		if !ok {
			break
		}
		if req.Kind == mem.Read {
			m.Reads++
			m.pending = append(m.pending, struct {
				r  mem.Resp
				at sim.Cycle
			}{mem.Resp{ID: req.ID, Addr: req.Addr}, now + m.delay})
		} else {
			m.Writes++
		}
	}
	for len(m.pending) > 0 && m.pending[0].at <= now && m.port.Up.CanPush() {
		m.port.Up.Push(m.pending[0].r)
		m.pending = m.pending[1:]
	}
}
func (m *fastMem) Commit(k *sim.Kernel) { m.port.Up.Tick() }

// runCore simulates a Table I core over the stream until it stops (or
// maxCycles).
func runCore(t *testing.T, ops []Op, repeat bool, maxInstr uint64, memDelay sim.Cycle) (*Core, *fastMem) {
	t.Helper()
	return runCoreCfg(t, DefaultConfig(), ops, repeat, maxInstr, memDelay)
}

// runCoreCfg is runCore with an explicit core configuration.
func runCoreCfg(t *testing.T, cfg Config, ops []Op, repeat bool, maxInstr uint64, memDelay sim.Cycle) (*Core, *fastMem) {
	t.Helper()
	port := mem.NewPort(8, 8)
	var ids mem.IDSource
	core := New("cpu", cfg, &sliceStream{ops: ops, repeat: repeat}, port, &ids, maxInstr)
	fm := &fastMem{port: port, delay: memDelay}
	k := sim.NewKernel()
	k.MustRegister(core)
	k.MustRegister(fm)
	k.Run(1_000_000)
	if !k.Stopped() {
		t.Fatal("core never stopped")
	}
	return core, fm
}

func intOp() Op   { return Op{Class: ClassInt} }
func chainOp() Op { return Op{Class: ClassInt, Dep1: 1} }

func TestIndependentIntIPCNearWidth(t *testing.T) {
	core, _ := runCore(t, []Op{intOp()}, true, 20000, 2)
	// 4-wide fetch/issue/commit: IPC should approach 4.
	if core.IPC() < 3.5 {
		t.Fatalf("IPC = %v, want ~4 for independent int ops", core.IPC())
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	core, _ := runCore(t, []Op{chainOp()}, true, 10000, 2)
	if core.IPC() > 1.1 || core.IPC() < 0.8 {
		t.Fatalf("IPC = %v, want ~1 for a serial dependency chain", core.IPC())
	}
}

func TestFPChainSlowerThanIntChain(t *testing.T) {
	fp := []Op{{Class: ClassFP, Dep1: 1}}
	core, _ := runCore(t, fp, true, 5000, 2)
	// FP latency 4: chain IPC ~ 1/4.
	if core.IPC() > 0.35 {
		t.Fatalf("FP chain IPC = %v, want ~0.25", core.IPC())
	}
}

func TestMemoryLevelParallelism(t *testing.T) {
	// Independent loads to distinct lines overlap; dependent loads do not.
	indep := make([]Op, 16)
	for i := range indep {
		indep[i] = Op{Class: ClassLoad, Addr: mem.Addr(i * 64)}
	}
	chain := make([]Op, 16)
	for i := range chain {
		chain[i] = Op{Class: ClassLoad, Addr: mem.Addr(i * 64), Dep1: 1}
	}
	coreI, _ := runCore(t, indep, true, 4000, 20)
	coreC, _ := runCore(t, chain, true, 4000, 20)
	if coreI.IPC() < 2*coreC.IPC() {
		t.Fatalf("independent loads IPC %v not much faster than chained %v",
			coreI.IPC(), coreC.IPC())
	}
}

func TestMispredictionsHurtIPC(t *testing.T) {
	rng := sim.NewRand(5)
	mixed := func(pattern func(i int) bool) []Op {
		var ops []Op
		for i := 0; i < 64; i++ {
			ops = append(ops, intOp(), intOp(), intOp(),
				Op{Class: ClassBranch, PC: uint64(0x100 + 16*(i%8)), Taken: pattern(i)})
		}
		return ops
	}
	biased, _ := runCore(t, mixed(func(i int) bool { return true }), true, 20000, 2)
	random, _ := runCore(t, mixed(func(i int) bool { return rng.Bool(0.5) }), true, 20000, 2)
	if random.IPC() >= biased.IPC() {
		t.Fatalf("random branches IPC %v not below biased %v", random.IPC(), biased.IPC())
	}
	if biased.BranchAccuracy() < 0.95 {
		t.Fatalf("biased accuracy = %v", biased.BranchAccuracy())
	}
	if random.Mispredicts == 0 {
		t.Fatal("random branches produced no mispredicts")
	}
}

func TestStoresReachMemory(t *testing.T) {
	ops := []Op{{Class: ClassStore, Addr: 0x1000}, intOp()}
	_, fm := runCore(t, ops, true, 2000, 2)
	if fm.Writes == 0 {
		t.Fatal("committed stores never drained to the cache")
	}
}

func TestStoreForwardingAvoidsMemory(t *testing.T) {
	// A load that follows a store to the same line forwards and issues no
	// memory read.
	ops := []Op{
		{Class: ClassStore, Addr: 0x2000},
		{Class: ClassLoad, Addr: 0x2000, Dep1: 0},
	}
	core, fm := runCore(t, ops, true, 2000, 50)
	if fm.Reads != 0 {
		t.Fatalf("forwardable loads issued %d memory reads", fm.Reads)
	}
	if core.LoadsIssued == 0 {
		t.Fatal("loads never issued")
	}
}

func TestMaxInstrStopsSimulation(t *testing.T) {
	core, _ := runCore(t, []Op{intOp()}, true, 1234, 2)
	if core.Committed != 1234 {
		t.Fatalf("Committed = %d, want exactly 1234", core.Committed)
	}
	if !core.Done() {
		t.Fatal("Done should report true")
	}
}

func TestFiniteStreamDrains(t *testing.T) {
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = intOp()
	}
	core, _ := runCore(t, ops, false, 0, 2)
	if core.Committed != 100 {
		t.Fatalf("Committed = %d, want 100 (stream length)", core.Committed)
	}
}

func TestTLBMissesCounted(t *testing.T) {
	// Loads striding across many pages must miss the 64-entry TLB.
	ops := make([]Op, 256)
	for i := range ops {
		ops[i] = Op{Class: ClassLoad, Addr: mem.Addr(i * 8192)}
	}
	core, _ := runCore(t, ops, false, 0, 2)
	if core.TLBMisses == 0 {
		t.Fatal("page-striding loads produced no TLB misses")
	}
}

func TestTLBMissSlowsLoads(t *testing.T) {
	hot := make([]Op, 64)
	for i := range hot {
		hot[i] = Op{Class: ClassLoad, Addr: mem.Addr(i*64) % 4096, Dep1: 1}
	}
	cold := make([]Op, 64)
	for i := range cold {
		cold[i] = Op{Class: ClassLoad, Addr: mem.Addr(i * 128 * 4096), Dep1: 1}
	}
	coreHot, _ := runCore(t, hot, true, 3000, 4)
	coreCold, _ := runCore(t, cold, true, 3000, 4)
	if coreCold.IPC() >= coreHot.IPC() {
		t.Fatalf("TLB-missing loads IPC %v not below TLB-hitting %v",
			coreCold.IPC(), coreHot.IPC())
	}
}

// gatedMem is a fastMem that takes nothing off its port before cycle open.
type gatedMem struct {
	fastMem
	open sim.Cycle
}

func (m *gatedMem) Eval(k *sim.Kernel) {
	if k.Cycle() >= m.open {
		m.fastMem.Eval(k)
	}
}

// TestRefusedLoadPaysItsTLBMiss: two independent loads to two pages issue
// in one cycle into a one-entry port that the level below does not drain
// before cycle 40, so the second is refused until then. A refused load is
// not translated: when it does go it pays its TLB miss, and the run ends
// at least TLBMissLatency cycles later than with its page already in the
// TLB.
func TestRefusedLoadPaysItsTLBMiss(t *testing.T) {
	cfg := DefaultConfig()
	run := func(secondPageMapped bool) uint64 {
		port := mem.NewPort(1, 8)
		var ids mem.IDSource
		ops := []Op{{Class: ClassLoad, Addr: 0}, {Class: ClassLoad, Addr: mem.Addr(cfg.PageBytes)}}
		core := New("cpu", cfg, &sliceStream{ops: ops}, port, &ids, 0)
		core.tlbLookup(0)
		if secondPageMapped {
			core.tlbLookup(mem.Addr(cfg.PageBytes))
		}
		k := sim.NewKernel()
		k.MustRegister(core)
		k.MustRegister(&gatedMem{fastMem: fastMem{port: port, delay: 4}, open: 40})
		k.Run(10_000)
		if !k.Stopped() || core.Committed != 2 {
			t.Fatalf("run stopped=%v after %d commits, want 2", k.Stopped(), core.Committed)
		}
		return core.Cycles
	}
	missed, mapped := run(false), run(true)
	if missed < mapped+uint64(cfg.TLBMissLatency) {
		t.Fatalf("refused TLB-missing load finished the run at cycle %d, the TLB-hitting one at %d: want >= %d later",
			missed, mapped, cfg.TLBMissLatency)
	}
}

func TestLoadLatencyTracked(t *testing.T) {
	ops := []Op{{Class: ClassLoad, Addr: 0x100, Dep1: 1}}
	core, _ := runCore(t, ops, true, 500, 30)
	if core.AvgLoadLatency() < 30 {
		t.Fatalf("AvgLoadLatency = %v, want >= memory delay 30", core.AvgLoadLatency())
	}
}

func TestCollect(t *testing.T) {
	core, _ := runCore(t, []Op{intOp()}, true, 1000, 2)
	s := stats.NewSet()
	core.Collect("cpu", s)
	if s.Counter("cpu.committed") != 1000 {
		t.Fatalf("Collect missing committed: %s", s)
	}
	if s.Scalar("cpu.ipc") <= 0 {
		t.Fatal("Collect missing ipc")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Op {
		rng := sim.NewRand(9)
		var ops []Op
		for i := 0; i < 200; i++ {
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, Op{Class: ClassLoad, Addr: mem.Addr(rng.Intn(1 << 16))})
			case 1:
				ops = append(ops, Op{Class: ClassBranch, PC: uint64(rng.Intn(64) * 16), Taken: rng.Bool(0.7)})
			default:
				ops = append(ops, Op{Class: ClassInt, Dep1: int32(rng.Intn(3))})
			}
		}
		return ops
	}
	a, _ := runCore(t, mk(), true, 5000, 10)
	b, _ := runCore(t, mk(), true, 5000, 10)
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/instr",
			a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
}

// TestResponseDrainReportsActive: the Eval that takes a load's response
// leaves a record that reports active, and the one before it, with the
// load in memory and nothing else to do, reports idle with no wake of
// its own: only the response, through the channel, ends that wait.
func TestResponseDrainReportsActive(t *testing.T) {
	port := mem.NewPort(4, 4)
	c := New("cpu", DefaultConfig(), &sliceStream{ops: []Op{{Class: ClassLoad, Addr: 0x1000}}}, port, &mem.IDSource{}, 0)
	k := sim.NewKernel()
	k.MustRegister(c)
	for i := 0; i < 10 && port.Down.Len() == 0; i++ {
		k.Step()
	}
	req, ok := port.Down.Pop()
	if !ok {
		t.Fatal("the load never reached the port")
	}
	k.Step()
	if wake, idle := c.NextEvent(k.Cycle()); !idle || wake != sim.Never {
		t.Fatalf("a core waiting on its only load: NextEvent = (%d, %v), want (Never, true)", wake, idle)
	}
	port.Up.Push(mem.Resp{ID: req.ID, Addr: req.Addr})
	port.Up.Tick()
	k.Step()
	if _, idle := c.NextEvent(k.Cycle()); idle {
		t.Fatal("the Eval that took the load's response reports idle")
	}
}
