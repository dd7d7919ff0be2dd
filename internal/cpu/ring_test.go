package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// mixedOps is a seeded op mix with every class, short dependency
// distances and loads slow enough (see the callers' memory delay) to
// back the ROB up against its configured size.
func mixedOps(seed uint64, n int) []Op {
	rng := sim.NewRand(seed)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			ops = append(ops, Op{Class: ClassLoad, Addr: mem.Addr(rng.Intn(1 << 16)), Dep1: int32(rng.Intn(4))})
		case 2:
			ops = append(ops, Op{Class: ClassStore, Addr: mem.Addr(rng.Intn(1 << 16)), Dep1: int32(rng.Intn(4))})
		case 3:
			ops = append(ops, Op{Class: ClassBranch, PC: uint64(rng.Intn(64) * 16), Taken: rng.Bool(0.7)})
		case 4:
			ops = append(ops, Op{Class: ClassFP, Dep1: int32(rng.Intn(6)), Dep2: int32(rng.Intn(12))})
		default:
			ops = append(ops, Op{Class: ClassInt, Dep1: int32(rng.Intn(3)), Dep2: int32(rng.Intn(9))})
		}
	}
	return ops
}

// TestROBSizeKeepsModuloRingResults pins the counters of three ROB sizes
// — two of them not powers of two — to what the `seq % ROBSize` ring
// produced at the commit before the ring became a masked power of two:
// the allocation may exceed cfg.ROBSize, the occupancy (and so every
// stall and latency) may not.
func TestROBSizeKeepsModuloRingResults(t *testing.T) {
	ops := mixedOps(11, 600)
	for _, want := range []struct {
		rob                                        int
		cycles, loads, stallROB, loadLatency, ring uint64
	}{
		{rob: 96, cycles: 132551, loads: 8505, stallROB: 37648, loadLatency: 1791345, ring: 128},
		{rob: 100, cycles: 132451, loads: 8505, stallROB: 30699, loadLatency: 1820613, ring: 128},
		{rob: 128, cycles: 128350, loads: 8505, stallROB: 20993, loadLatency: 1845798, ring: 128},
	} {
		cfg := DefaultConfig()
		cfg.ROBSize = want.rob
		c, _ := runCoreCfg(t, cfg, ops, true, 30_000, 70)
		if c.Committed != 30_000 || c.Cycles != want.cycles || c.LoadsIssued != want.loads ||
			c.StallROBFull != want.stallROB || c.LoadLatSum != want.loadLatency {
			t.Errorf("ROBSize %d: committed %d cycles %d loads %d stallROB %d loadLatency %d, want 30000 %d %d %d %d",
				want.rob, c.Committed, c.Cycles, c.LoadsIssued, c.StallROBFull, c.LoadLatSum,
				want.cycles, want.loads, want.stallROB, want.loadLatency)
		}
		if uint64(len(c.rob)) != want.ring || c.robMask != want.ring-1 {
			t.Errorf("ROBSize %d: ring of %d slots, mask %#x, want %d", want.rob, len(c.rob), c.robMask, want.ring)
		}
	}
}

// liveStoreCounts recounts storeLines from what it summarises: the
// issued stores in the ROB and the stores in the store buffer.
func liveStoreCounts(c *Core) (counts [storeLineSlots]uint32) {
	for i := 0; i < c.storeBuf.Len(); i++ {
		counts[storeLineSlot(c.storeBuf.At(i))]++
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		if e := c.robAt(seq); e.class == ClassStore && e.issued {
			counts[storeLineSlot(e.addr)]++
		}
	}
	return counts
}

// TestStoreLineFilterIsExact runs a finite store-heavy stream whose
// addresses are drawn from a few lines and their aliases one filter
// period (storeLineSlots lines) apart, and checks between every two
// cycles that the filter equals a recount of the live issued stores (an
// underflow would read as ~4e9), and that storeForward answers as the
// exhaustive scan does for every address of the stream — hits, misses
// and the collisions where only an alias is live. Once the stream has
// drained, every count is zero.
func TestStoreLineFilterIsExact(t *testing.T) {
	const period = storeLineSlots * forwardLineBytes
	rng := sim.NewRand(23)
	var addrs []mem.Addr
	for line := 0; line < 6; line++ {
		for alias := 0; alias < 3; alias++ {
			addrs = append(addrs, mem.Addr(0x4000+line*forwardLineBytes+alias*period))
		}
	}
	ops := make([]Op, 3000)
	for i := range ops {
		a := addrs[rng.Intn(len(addrs))] + mem.Addr(rng.Intn(forwardLineBytes))
		switch rng.Intn(5) {
		case 0, 1:
			ops[i] = Op{Class: ClassStore, Addr: a, Dep1: int32(rng.Intn(3))}
		case 2, 3:
			ops[i] = Op{Class: ClassLoad, Addr: a, Dep1: int32(rng.Intn(3))}
		default:
			ops[i] = Op{Class: ClassInt, Dep1: int32(rng.Intn(4))}
		}
	}
	port := mem.NewPort(8, 8)
	c := New("cpu", DefaultConfig(), &sliceStream{ops: ops}, port, &mem.IDSource{}, 0)
	k := sim.NewKernel()
	k.MustRegister(c)
	k.MustRegister(&fastMem{port: port, delay: 25})

	var hits, misses, collisions int
	check := func() {
		t.Helper()
		if got, want := c.storeLines, liveStoreCounts(c); got != want {
			t.Fatalf("cycle %d: storeLines = %v, live issued stores %v", k.Cycle(), got, want)
		}
		for _, a := range addrs {
			line := a.Line(forwardLineBytes)
			got, want := c.storeForward(a), c.scanStores(line)
			if got != want {
				t.Fatalf("cycle %d: storeForward(%#x) = %v, full scan %v", k.Cycle(), uint64(a), got, want)
			}
			switch {
			case want:
				hits++
			case c.storeLines[storeLineSlot(line)] != 0:
				collisions++
			default:
				misses++
			}
		}
	}
	for !k.Stopped() || c.storeBuf.Len() > 0 {
		if k.Cycle() > 200_000 {
			t.Fatal("stream never drained")
		}
		check()
		k.Step() // past the core's Stop too: the store buffer still drains
	}
	check()
	if c.Committed != uint64(len(ops)) || c.storeLines != [storeLineSlots]uint32{} {
		t.Fatalf("drained after %d of %d ops with live counts %v", c.Committed, len(ops), c.storeLines)
	}
	if hits == 0 || misses == 0 || collisions == 0 {
		t.Fatalf("probes saw %d hits, %d misses, %d collisions; want all three", hits, misses, collisions)
	}
}
