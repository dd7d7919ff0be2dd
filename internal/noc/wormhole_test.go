package noc

import (
	"testing"

	"repro/internal/sim"
)

// testMessage is the message the mesh tests send: no payload.
type testMessage = Message[struct{}]

func dnucaMesh() *Mesh[struct{}] {
	// Table I: 4 VCs, 4-flit buffers; an 8x4 mesh like DN-4x8.
	return NewMesh[struct{}](MeshConfig{Width: 8, Height: 4, VCs: 4, VCDepth: 4})
}

// drain picks up every message delivered at c and returns how many.
func drain(m *Mesh[struct{}], c Coord) int {
	n := 0
	for {
		if _, ok := m.EjectOne(c); !ok {
			return n
		}
		n++
	}
}

func TestMeshConfigValidate(t *testing.T) {
	bad := []MeshConfig{
		{Width: 0, Height: 4, VCs: 4, VCDepth: 4},
		{Width: 8, Height: 0, VCs: 4, VCDepth: 4},
		{Width: 8, Height: 4, VCs: 0, VCDepth: 4},
		{Width: 8, Height: 4, VCs: 4, VCDepth: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	if err := (MeshConfig{Width: 2, Height: 2, VCs: 1, VCDepth: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMeshSingleMessageLatency(t *testing.T) {
	m := dnucaMesh()
	msg := testMessage{ID: 1, Src: Coord{0, 0}, Dst: Coord{3, 2}, Flits: 1}
	if !m.Inject(msg, 0) {
		t.Fatal("inject failed")
	}
	var now sim.Cycle
	for now = 0; now < 100; now++ {
		m.Step(now)
		if got, ok := m.EjectOne(Coord{3, 2}); ok {
			if got.ID != 1 {
				t.Fatalf("wrong message ejected: %d", got.ID)
			}
			// 5 hops + injection/ejection pipeline: roughly hops+2.
			hops := Manhattan(msg.Src, msg.Dst)
			if int(got.Delivered-got.Injected) < hops {
				t.Fatalf("latency %d below hop count %d", got.Delivered-got.Injected, hops)
			}
			if int(got.Delivered-got.Injected) > hops+6 {
				t.Fatalf("uncontended latency %d way above hop count %d",
					got.Delivered-got.Injected, hops)
			}
			return
		}
	}
	t.Fatal("message never delivered")
}

func TestMeshMultiFlitWormhole(t *testing.T) {
	m := dnucaMesh()
	// A 5-flit message (Table I: 1-5 flits per message).
	msg := testMessage{ID: 1, Src: Coord{0, 0}, Dst: Coord{7, 3}, Flits: 5}
	m.Inject(msg, 0)
	for now := sim.Cycle(0); now < 200; now++ {
		m.Step(now)
		if got, ok := m.EjectOne(Coord{7, 3}); ok {
			hops := Manhattan(msg.Src, msg.Dst)
			// Tail trails the head by Flits-1 cycles under wormhole.
			if int(got.Delivered-got.Injected) < hops+msg.Flits-1 {
				t.Fatalf("latency %d too small for %d-flit wormhole over %d hops",
					got.Delivered-got.Injected, msg.Flits, hops)
			}
			return
		}
	}
	t.Fatal("message never delivered")
}

func TestMeshAllMessagesDelivered(t *testing.T) {
	m := dnucaMesh()
	rng := sim.NewRand(7)
	want := 0
	delivered := 0
	var pendingInject []testMessage
	for i := 0; i < 200; i++ {
		pendingInject = append(pendingInject, testMessage{
			ID:    uint64(i + 1),
			Src:   Coord{rng.Intn(8), rng.Intn(4)},
			Dst:   Coord{rng.Intn(8), rng.Intn(4)},
			Flits: 1 + rng.Intn(5),
		})
		want++
	}
	for now := sim.Cycle(0); now < 20000 && delivered < want; now++ {
		// Trickle injections as staging space allows.
		for len(pendingInject) > 0 && m.Inject(pendingInject[0], now) {
			pendingInject = pendingInject[1:]
		}
		m.Step(now)
		for x := 0; x < 8; x++ {
			for y := 0; y < 4; y++ {
				delivered += drain(m, Coord{x, y})
			}
		}
	}
	if delivered != want {
		t.Fatalf("delivered %d of %d messages (in flight: %d)", delivered, want, m.InFlight())
	}
	if m.MsgsDelivered != uint64(want) {
		t.Fatalf("stats mismatch: MsgsDelivered=%d want %d", m.MsgsDelivered, want)
	}
}

func TestMeshHeavyContentionSingleSink(t *testing.T) {
	// All nodes hammer one sink: the network must not deadlock or drop.
	m := NewMesh[struct{}](MeshConfig{Width: 4, Height: 4, VCs: 2, VCDepth: 2})
	sink := Coord{0, 0}
	var queued []testMessage
	id := uint64(0)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			if (Coord{x, y}) == sink {
				continue
			}
			for k := 0; k < 6; k++ {
				id++
				queued = append(queued, testMessage{ID: id, Src: Coord{x, y}, Dst: sink, Flits: 3})
			}
		}
	}
	want := len(queued)
	got := 0
	for now := sim.Cycle(0); now < 50000 && got < want; now++ {
		for len(queued) > 0 && m.Inject(queued[0], now) {
			queued = queued[1:]
		}
		m.Step(now)
		got += drain(m, sink)
	}
	if got != want {
		t.Fatalf("delivered %d of %d under contention", got, want)
	}
}

func TestMeshContentionIncreasesLatency(t *testing.T) {
	// One message alone vs the same message with background traffic.
	solo := dnucaMesh()
	msg := testMessage{ID: 1, Src: Coord{0, 0}, Dst: Coord{7, 0}, Flits: 3}
	solo.Inject(msg, 0)
	for now := sim.Cycle(0); now < 200 && msg.Delivered == 0; now++ {
		solo.Step(now)
		if got, ok := solo.EjectOne(Coord{7, 0}); ok {
			msg = got
		}
	}
	soloLat := uint64(msg.Delivered - msg.Injected)

	busy := dnucaMesh()
	// Background: many same-row messages fighting for the same links.
	for i := 0; i < 12; i++ {
		busy.Inject(testMessage{ID: uint64(100 + i), Src: Coord{i % 4, 0}, Dst: Coord{7, 0}, Flits: 5}, 0)
	}
	probe := testMessage{ID: 1, Src: Coord{0, 0}, Dst: Coord{7, 0}, Flits: 3}
	busy.Inject(probe, 0)
	for now := sim.Cycle(0); now < 5000 && probe.Delivered == 0; now++ {
		busy.Step(now)
		for got, ok := busy.EjectOne(Coord{7, 0}); ok; got, ok = busy.EjectOne(Coord{7, 0}) {
			if got.ID == probe.ID {
				probe = got // the delivered copy carries the stamps
			}
		}
	}
	if probe.Delivered == 0 {
		t.Fatal("probe never delivered under load")
	}
	if uint64(probe.Delivered-probe.Injected) <= soloLat {
		t.Fatalf("contention did not increase latency: solo=%d busy=%d",
			soloLat, probe.Delivered-probe.Injected)
	}
}

func TestMeshNumLinks(t *testing.T) {
	m := dnucaMesh() // 8x4
	// Unidirectional: 2*(8*3 + 4*7) = 2*52 = 104.
	if got := m.NumLinks(); got != 104 {
		t.Fatalf("NumLinks = %d, want 104", got)
	}
}

func TestMeshInjectBounds(t *testing.T) {
	m := dnucaMesh()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds inject should panic")
		}
	}()
	m.Inject(testMessage{Src: Coord{99, 0}, Dst: Coord{0, 0}, Flits: 1}, 0)
}

func TestMeshZeroFlitClamped(t *testing.T) {
	m := dnucaMesh()
	m.Inject(testMessage{ID: 1, Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 0}, 0)
	for now := sim.Cycle(0); now < 50; now++ {
		m.Step(now)
		if msg, ok := m.EjectOne(Coord{1, 0}); ok {
			if msg.Flits != 1 {
				t.Fatal("zero-flit message should clamp to 1")
			}
			return
		}
	}
	t.Fatal("zero-flit message never delivered")
}

func TestMeshLocalDelivery(t *testing.T) {
	// Src == Dst must still work (loopback through the local port).
	m := dnucaMesh()
	msg := testMessage{ID: 1, Src: Coord{2, 2}, Dst: Coord{2, 2}, Flits: 2}
	m.Inject(msg, 0)
	for now := sim.Cycle(0); now < 50; now++ {
		m.Step(now)
		if got, ok := m.EjectOne(Coord{2, 2}); ok {
			if got.ID != 1 {
				t.Fatal("wrong message")
			}
			return
		}
	}
	t.Fatal("loopback message never delivered")
}

// loadedMesh steps a mesh for 40 cycles of seeded traffic, most of it
// aimed at one sink and none of it picked up, and requires that this
// left messages at once staged, buffered in routers holding output
// reservations, and delivered.
func loadedMesh(t *testing.T, cfg MeshConfig) *Mesh[struct{}] {
	t.Helper()
	m := NewMesh[struct{}](cfg)
	rng := sim.NewRand(3)
	id := uint64(0)
	for now := sim.Cycle(0); now < 40; now++ {
		for i := 0; i < 4; i++ {
			id++
			dst := Coord{0, 0}
			if rng.Bool(0.3) {
				dst = Coord{rng.Intn(cfg.Width), rng.Intn(cfg.Height)}
			}
			m.Inject(testMessage{ID: id, Src: Coord{rng.Intn(cfg.Width), rng.Intn(cfg.Height)}, Dst: dst, Flits: 1 + rng.Intn(5)}, now)
		}
		m.Step(now)
	}
	owned := false
	for _, o := range m.owner {
		owned = owned || o
	}
	if m.staged.Next(0) < 0 || m.routers.Next(0) < 0 || m.delivered.Next(0) < 0 || !owned {
		t.Fatal("traffic did not reach a state with staged, buffered, reserved and delivered messages")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMeshCheckInvariantsCatchesBrokenBookkeeping breaks each piece of
// bookkeeping CheckInvariants covers, one at a time, in a loaded mesh —
// one whose routers fit a busy word, and one (65 slots) whose routers
// span two — and requires every break to be reported.
func TestMeshCheckInvariantsCatchesBrokenBookkeeping(t *testing.T) {
	breaks := []struct {
		name  string
		apply func(m *Mesh[struct{}])
	}{
		{"busy bit dropped", func(m *Mesh[struct{}]) {
			node := m.routers.Next(0)
			words := m.busy[node*m.words : (node+1)*m.words]
			for w := range words {
				if words[w] != 0 {
					words[w] &= words[w] - 1
					return
				}
			}
		}},
		{"busy count off", func(m *Mesh[struct{}]) { m.busyN[m.routers.Next(0)]++ }},
		{"router bit dropped", func(m *Mesh[struct{}]) { m.routers.Clear(m.routers.Next(0)) }},
		{"staged bit dropped", func(m *Mesh[struct{}]) { m.staged.Clear(m.staged.Next(0)) }},
		{"delivered bit dropped", func(m *Mesh[struct{}]) { m.delivered.Clear(m.delivered.Next(0)) }},
		{"pool slot leaked", func(m *Mesh[struct{}]) { m.free = m.free[:len(m.free)-1] }},
		{"held slot freed", func(m *Mesh[struct{}]) {
			for i := range m.vcs {
				if m.vcs[i].n > 0 {
					m.free = append(m.free, m.vcs[i].msg)
					return
				}
			}
		}},
		{"cached destination wrong", func(m *Mesh[struct{}]) {
			for i := range m.vcs {
				if m.vcs[i].n > 0 {
					m.dest[m.vcs[i].msg]++
					return
				}
			}
		}},
		{"reservation dropped", func(m *Mesh[struct{}]) {
			for g := range m.owner {
				if m.owner[g] {
					m.owner[g] = false
					return
				}
			}
		}},
		{"ejected count off", func(m *Mesh[struct{}]) { m.ejected++ }},
	}
	for _, cfg := range []MeshConfig{equivConfigs[0], equivConfigs[2]} {
		for _, b := range breaks {
			m := loadedMesh(t, cfg)
			b.apply(m)
			if err := m.CheckInvariants(); err == nil {
				t.Errorf("%dx%d_vc%d: %s: CheckInvariants reported nothing", cfg.Width, cfg.Height, cfg.VCs, b.name)
			}
		}
	}
}

func TestMeshAvgLatencyStat(t *testing.T) {
	m := dnucaMesh()
	m.Inject(testMessage{ID: 1, Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 1}, 0)
	for now := sim.Cycle(0); now < 50 && m.MsgsDelivered == 0; now++ {
		m.Step(now)
	}
	got, ok := m.EjectOne(Coord{1, 0})
	if m.MsgsDelivered != 1 || !ok || got.Delivered <= got.Injected {
		t.Fatalf("delivered %d messages, the first injected at %d and delivered at %d, want 1 taking a positive time",
			m.MsgsDelivered, got.Injected, got.Delivered)
	}
}
