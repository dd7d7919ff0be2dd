package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAddrLine(t *testing.T) {
	cases := []struct {
		addr  Addr
		block int
		want  Addr
	}{
		{0x1234, 32, 0x1220},
		{0x1234, 64, 0x1200},
		{0x1234, 128, 0x1200},
		{0x0, 32, 0x0},
		{0x1F, 32, 0x0},
		{0x20, 32, 0x20},
	}
	for _, c := range cases {
		if got := c.addr.Line(c.block); got != c.want {
			t.Errorf("%#x.Line(%d) = %#x, want %#x", uint64(c.addr), c.block, uint64(got), uint64(c.want))
		}
	}
}

func TestAddrLineProperty(t *testing.T) {
	f := func(a uint64, shift uint8) bool {
		block := 1 << (3 + shift%6) // 8..256 bytes
		line := Addr(a).Line(block)
		// The line must be aligned and must contain the address.
		return uint64(line)%uint64(block) == 0 &&
			uint64(line) <= a && a < uint64(line)+uint64(block)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Writeback.String() != "writeback" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should not render empty")
	}
}

func TestIDSourceUnique(t *testing.T) {
	var s IDSource
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero id %d", id)
		}
		seen[id] = true
	}
}

func TestChanTwoPhaseVisibility(t *testing.T) {
	c := NewChan[int](4)
	if !c.CanPush() {
		t.Fatal("fresh channel should accept")
	}
	c.Push(1)
	if c.Len() != 0 {
		t.Fatal("push visible before Tick")
	}
	c.Tick()
	if c.Len() != 1 {
		t.Fatal("push not visible after Tick")
	}
	v, ok := c.Pop()
	if !ok || v != 1 {
		t.Fatalf("Pop = %v,%v want 1,true", v, ok)
	}
}

func TestChanBackpressure(t *testing.T) {
	c := NewChan[int](2)
	c.Push(1)
	c.Push(2)
	if c.CanPush() {
		t.Fatal("channel should be full within a cycle")
	}
	c.Tick()
	if c.CanPush() {
		t.Fatal("channel should still be full (nothing popped)")
	}
	c.Pop()
	// Space freed by a pop is not available until next Tick (registered
	// FIFO semantics).
	if c.CanPush() {
		t.Fatal("pop must not free space within the same cycle")
	}
	c.Tick()
	if !c.CanPush() {
		t.Fatal("space should be free after Tick")
	}
}

func TestChanOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow should panic")
		}
	}()
	c := NewChan[int](1)
	c.Push(1)
	c.Push(2)
}

func TestChanFIFOOrder(t *testing.T) {
	f := func(vals []int16) bool {
		c := NewChan[int16](len(vals) + 1)
		for _, v := range vals {
			c.Push(v)
		}
		c.Tick()
		for _, want := range vals {
			got, ok := c.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := c.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChanPeek(t *testing.T) {
	c := NewChan[string](2)
	if _, ok := c.Peek(); ok {
		t.Fatal("Peek on empty should fail")
	}
	c.Push("a")
	c.Tick()
	v, ok := c.Peek()
	if !ok || v != "a" {
		t.Fatalf("Peek = %q,%v", v, ok)
	}
	if c.Len() != 1 {
		t.Fatal("Peek must not remove")
	}
}

func TestChanDegenerateCapacity(t *testing.T) {
	c := NewChan[int](0)
	if c.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want clamp to 1", c.Capacity())
	}
}

func TestMainMemoryConfigMath(t *testing.T) {
	cfg := DefaultMainMemoryConfig()
	// 128B block on 16B wires: 8 chunks -> 200 + 7*4 = 228 cycles.
	if got := cfg.TransferCycles(); got != 228 {
		t.Errorf("TransferCycles = %d, want 228", got)
	}
	if got := cfg.BusOccupancyCycles(); got != 32 {
		t.Errorf("BusOccupancyCycles = %d, want 32", got)
	}
}

// harness drives a MainMemory with a scripted requester.
type memHarness struct {
	port *Port
	mm   *MainMemory
	k    *sim.Kernel

	got []Resp
}

func newMemHarness() *memHarness {
	h := &memHarness{port: NewPort(8, 8)}
	h.mm = NewMainMemory("mem", DefaultMainMemoryConfig(), h.port)
	h.k = sim.NewKernel()
	h.k.MustRegister(h.mm)
	h.k.MustRegister(h) // requester side ticks Down and drains Up
	return h
}

func (h *memHarness) Name() string { return "driver" }
func (h *memHarness) Eval(k *sim.Kernel) {
	for {
		r, ok := h.port.Up.Pop()
		if !ok {
			break
		}
		h.got = append(h.got, r)
	}
}
func (h *memHarness) Commit(k *sim.Kernel) { h.port.Down.Tick() }

func (h *memHarness) send(req Req) {
	req.Issued = h.k.Cycle()
	h.port.Down.Push(req)
}

func TestMainMemoryReadLatency(t *testing.T) {
	h := newMemHarness()
	h.send(Req{ID: 1, Addr: 0x1000, Kind: Read})
	for i := 0; i < 400 && len(h.got) == 0; i++ {
		h.k.Step()
	}
	if len(h.got) != 1 {
		t.Fatal("no response")
	}
	// Request pushed at cycle 0, visible to memory at cycle 1, response
	// matures 228 cycles later and crosses the Up channel (1 more cycle).
	lat := h.got[0].Done
	if lat < 228 || lat > 232 {
		t.Errorf("read latency = %d, want ~229", lat)
	}
	if h.mm.Reads != 1 {
		t.Errorf("Reads = %d, want 1", h.mm.Reads)
	}
}

func TestMainMemoryWritebackNoResponse(t *testing.T) {
	h := newMemHarness()
	h.send(Req{ID: 1, Addr: 0x2000, Kind: Writeback})
	for i := 0; i < 300; i++ {
		h.k.Step()
	}
	if len(h.got) != 0 {
		t.Fatal("writeback must not produce a response")
	}
	if h.mm.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", h.mm.Writebacks)
	}
}

func TestMainMemoryBandwidthSerialization(t *testing.T) {
	h := newMemHarness()
	h.send(Req{ID: 1, Addr: 0x1000, Kind: Read})
	h.send(Req{ID: 2, Addr: 0x2000, Kind: Read})
	for i := 0; i < 600 && len(h.got) < 2; i++ {
		h.k.Step()
	}
	if len(h.got) != 2 {
		t.Fatal("missing responses")
	}
	gap := h.got[1].Done - h.got[0].Done
	// Second transfer cannot start until the wires are free: 32 cycles.
	if gap < 32 {
		t.Errorf("responses only %d cycles apart, want >= 32 (bus occupancy)", gap)
	}
	if h.got[0].ID != 1 || h.got[1].ID != 2 {
		t.Errorf("responses out of order: %d then %d", h.got[0].ID, h.got[1].ID)
	}
}

func TestMainMemoryManyRequestsAllServed(t *testing.T) {
	h := newMemHarness()
	const n = 6
	for i := 0; i < n; i++ {
		h.send(Req{ID: uint64(i + 1), Addr: Addr(0x1000 * (i + 1)), Kind: Read})
		h.k.Step()
	}
	for i := 0; i < 3000 && len(h.got) < n; i++ {
		h.k.Step()
	}
	if len(h.got) != n {
		t.Fatalf("served %d of %d", len(h.got), n)
	}
	if h.mm.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", h.mm.Pending())
	}
}

// TestMainMemoryRecordsItsWaits: each Eval of the memory leaves the
// record NextEvent answers from. One that accepts or delivers reports
// active; one that only waits reports idle until the earliest of the
// bus release a queued request needs and the oldest response's
// maturity.
func TestMainMemoryRecordsItsWaits(t *testing.T) {
	cfg := DefaultMainMemoryConfig()
	port := NewPort(4, 4)
	m := NewMainMemory("mem", cfg, port)
	k := sim.NewKernel()
	k.MustRegister(m)
	port.Down.Push(Req{ID: 1, Addr: 0x1000, Kind: Read})
	port.Down.Push(Req{ID: 2, Addr: 0x2000, Kind: Read})
	port.Down.Tick()

	record := func(wantIdle bool, wantWake sim.Cycle) {
		t.Helper()
		wake, idle := m.NextEvent(k.Cycle())
		if idle != wantIdle || (idle && wake != wantWake) {
			t.Fatalf("after the Eval at cycle %d: NextEvent = (%d, %v), want (%d, %v)",
				k.Cycle()-1, wake, idle, wantWake, wantIdle)
		}
	}
	bus, first := cfg.BusOccupancyCycles(), cfg.TransferCycles()
	k.Step() // accepts request 1
	record(false, 0)
	k.Step() // request 2 waits for the wires
	record(true, bus)
	for k.Cycle() < bus {
		k.Step()
	}
	k.Step() // accepts request 2
	record(false, 0)
	k.Step() // both responses are in flight
	record(true, first)
	for k.Cycle() < first {
		k.Step()
	}
	k.Step() // delivers response 1
	record(false, 0)
	if port.Up.Len() != 1 {
		t.Fatalf("%d responses delivered at cycle %d, want 1", port.Up.Len(), first)
	}
	k.Step()
	record(true, bus+first)
}
