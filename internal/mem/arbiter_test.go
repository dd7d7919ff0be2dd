package mem

import (
	"testing"

	"repro/internal/sim"
)

// streamer pushes a read request every cycle its port has space and
// records the responses routed back to it. It owns up.Down and up.Up-pops.
type streamer struct {
	name string
	port *Port
	ids  *IDSource

	sent     map[uint64]bool
	received int
	foreign  int // responses that were never ours — routing errors
}

func newStreamer(name string, port *Port, ids *IDSource) *streamer {
	return &streamer{name: name, port: port, ids: ids, sent: make(map[uint64]bool)}
}

func (s *streamer) Name() string { return s.name }

func (s *streamer) Eval(k *sim.Kernel) {
	for {
		resp, ok := s.port.Up.Pop()
		if !ok {
			break
		}
		if !s.sent[resp.ID] {
			s.foreign++
		}
		delete(s.sent, resp.ID)
		s.received++
	}
	if s.port.Down.CanPush() {
		id := s.ids.Next()
		s.sent[id] = true
		s.port.Down.Push(Req{ID: id, Addr: Addr(id * 64), Kind: Read, Issued: k.Cycle()})
	}
}

func (s *streamer) Commit(k *sim.Kernel) { s.port.Down.Tick() }

// sink services the shared port with a fixed latency: it answers every
// request the cycle after it arrives, channel space permitting. It owns
// down.Up and down.Down-pops.
type sink struct {
	port     *Port
	perCycle int
	served   int
}

func (s *sink) Name() string { return "sink" }

func (s *sink) Eval(k *sim.Kernel) {
	for n := 0; n < s.perCycle; n++ {
		req, ok := s.port.Down.Peek()
		if !ok || !s.port.Up.CanPush() {
			return
		}
		s.port.Down.Pop()
		s.port.Up.Push(Resp{ID: req.ID, Addr: req.Addr, Done: k.Cycle()})
		s.served++
	}
}

func (s *sink) Commit(k *sim.Kernel) { s.port.Up.Tick() }

// arbScenario wires n streamers through an arbiter into a sink and runs
// cycles, registering components in the given order (a permutation of
// 0..n+1 over [streamers..., arbiter, sink]).
func arbScenario(t *testing.T, n int, cycles uint64, order []int) ([]*streamer, *Arbiter, *sink) {
	t.Helper()
	var ids IDSource
	up := make([]*Port, n)
	streamers := make([]*streamer, n)
	for i := range up {
		up[i] = NewPort(4, 4)
	}
	down := NewPort(4, 4)
	arb, err := NewArbiter(ArbiterConfig{Name: "arb"}, up, down)
	if err != nil {
		t.Fatal(err)
	}
	sk := &sink{port: down, perCycle: 2}
	comps := make([]sim.Component, 0, n+2)
	for i := range streamers {
		streamers[i] = newStreamer("s"+string(rune('0'+i)), up[i], &ids)
		comps = append(comps, streamers[i])
	}
	comps = append(comps, arb, sk)
	k := sim.NewKernel()
	for _, idx := range order {
		k.MustRegister(comps[idx])
	}
	k.Run(cycles)
	return streamers, arb, sk
}

func naturalOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestArbiterFairnessUnderSaturation: with every source streaming as fast
// as its port allows, round-robin must split the shared bandwidth evenly.
func TestArbiterFairnessUnderSaturation(t *testing.T) {
	const n, cycles = 4, 10_000
	streamers, arb, sk := arbScenario(t, n, cycles, naturalOrder(n+2))

	var min, max uint64 = ^uint64(0), 0
	for i, g := range arb.Granted {
		t.Logf("source %d: %d grants, %d conflicts", i, g, arb.Conflicts[i])
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
		if g == 0 {
			t.Fatalf("source %d starved", i)
		}
	}
	if max-min > 1 {
		t.Fatalf("unfair grant split: min %d max %d", min, max)
	}
	if arb.TotalGrants() < cycles/2 {
		t.Fatalf("arbiter underutilized: %d grants in %d cycles", arb.TotalGrants(), cycles)
	}
	if sk.served == 0 {
		t.Fatal("sink served nothing")
	}
	for i, s := range streamers {
		if s.foreign != 0 {
			t.Fatalf("source %d received %d foreign responses", i, s.foreign)
		}
		if s.received == 0 {
			t.Fatalf("source %d received no responses", i)
		}
	}
	// Saturated sources must observe contention.
	for i, c := range arb.Conflicts {
		if c == 0 {
			t.Fatalf("source %d reports no conflicts under saturation", i)
		}
	}
}

// TestArbiterDeterministicAcrossRegistrationOrder: the two-phase kernel
// discipline means grant schedules cannot depend on the order components
// were registered in.
func TestArbiterDeterministicAcrossRegistrationOrder(t *testing.T) {
	const n, cycles = 4, 5_000
	orders := [][]int{
		naturalOrder(n + 2),
		{5, 4, 3, 2, 1, 0}, // sink and arbiter first, streamers reversed
		{4, 0, 5, 1, 3, 2}, // interleaved
		{2, 3, 0, 1, 5, 4}, // streamers shuffled
	}
	type outcome struct {
		granted  []uint64
		received []int
		served   int
	}
	var ref *outcome
	for oi, order := range orders {
		streamers, arb, sk := arbScenario(t, n, cycles, order)
		got := &outcome{granted: arb.Granted, served: sk.served}
		for _, s := range streamers {
			got.received = append(got.received, s.received)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref.granted {
			if ref.granted[i] != got.granted[i] {
				t.Fatalf("order %d: grants[%d] = %d, want %d", oi, i, got.granted[i], ref.granted[i])
			}
			if ref.received[i] != got.received[i] {
				t.Fatalf("order %d: received[%d] = %d, want %d", oi, i, got.received[i], ref.received[i])
			}
		}
		if ref.served != got.served {
			t.Fatalf("order %d: served = %d, want %d", oi, got.served, ref.served)
		}
	}
}

// TestArbiterRoutesWritebacksWithoutTracking: writebacks get no response,
// so they must not leak owner-table entries.
func TestArbiterRoutesWritebacksWithoutTracking(t *testing.T) {
	var ids IDSource
	up := []*Port{NewPort(4, 4)}
	down := NewPort(4, 4)
	arb, err := NewArbiter(ArbiterConfig{}, up, down)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	k.MustRegister(arb)

	up[0].Down.Push(Req{ID: ids.Next(), Addr: 0x40, Kind: Writeback})
	up[0].Down.Tick()
	k.Step()
	k.Step()
	if arb.InFlight() != 0 {
		t.Fatalf("writeback tracked: %d in flight", arb.InFlight())
	}
	if got, ok := down.Down.Peek(); !ok || got.Kind != Writeback {
		t.Fatalf("writeback not forwarded (ok=%v)", ok)
	}

	// Writes are absorbed downstream too (controllers respond only to
	// reads): tracking them would leak an owner entry per store for the
	// whole run.
	down.Down.Pop()
	up[0].Down.Push(Req{ID: ids.Next(), Addr: 0x80, Kind: Write})
	up[0].Down.Tick()
	k.Step()
	k.Step()
	if arb.InFlight() != 0 {
		t.Fatalf("write tracked: %d in flight", arb.InFlight())
	}
	if got, ok := down.Down.Peek(); !ok || got.Kind != Write {
		t.Fatalf("write not forwarded (ok=%v)", ok)
	}
}

// TestArbiterBandwidthBound: GrantsPerCycle is a hard per-cycle cap.
func TestArbiterBandwidthBound(t *testing.T) {
	const n, cycles = 3, 1_000
	var ids IDSource
	up := make([]*Port, n)
	for i := range up {
		up[i] = NewPort(8, 8)
	}
	down := NewPort(16, 16)
	arb, err := NewArbiter(ArbiterConfig{GrantsPerCycle: 2, RespPerCycle: 2}, up, down)
	if err != nil {
		t.Fatal(err)
	}
	sk := &sink{port: down, perCycle: 4}
	k := sim.NewKernel()
	for i := range up {
		k.MustRegister(newStreamer("s"+string(rune('0'+i)), up[i], &ids))
	}
	k.MustRegister(arb)
	k.MustRegister(sk)
	k.Run(cycles)
	if got := arb.TotalGrants(); got > 2*cycles {
		t.Fatalf("granted %d > bandwidth bound %d", got, 2*cycles)
	}
	if got := arb.TotalGrants(); got < cycles {
		t.Fatalf("granted %d, expected near-saturation with 3 streamers", got)
	}
}

// TestArbiterCountsOrphanResponse: a response whose ID the arbiter never
// forwarded is dropped and counted, and the responses behind it still
// reach their source.
func TestArbiterCountsOrphanResponse(t *testing.T) {
	up, down := []*Port{NewPort(2, 2), NewPort(2, 2)}, NewPort(2, 2)
	a, err := NewArbiter(ArbiterConfig{}, up, down)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	k.MustRegister(a)
	up[1].Down.Push(Req{ID: 7, Addr: 0x40, Kind: Read})
	up[1].Down.Tick()
	k.Run(2)
	if _, ok := down.Down.Pop(); !ok {
		t.Fatal("the read was not forwarded")
	}
	down.Up.Push(Resp{ID: 99, Addr: 0x80})
	down.Up.Push(Resp{ID: 7, Addr: 0x40})
	down.Up.Tick()
	k.Run(3)
	if a.RespOrphans != 1 || a.RespRouted != 1 {
		t.Fatalf("%d orphans and %d routed, want 1 and 1", a.RespOrphans, a.RespRouted)
	}
	if r, ok := up[1].Up.Pop(); !ok || r.ID != 7 {
		t.Fatalf("source 1 got %+v (%v), want response 7", r, ok)
	}
}
