package noc

import (
	"testing"

	"repro/internal/sim"
)

// dnTraffic drives a mesh the way the D-NUCA does: the controller corner
// multicasts 1-flit searches down a random column, and every bank that
// receives one answers with a 1-flit nack or, a quarter of the time, a
// 5-flit hit. Messages the injection staging refuses wait in pending.
type dnTraffic struct {
	m       *Mesh[struct{}]
	cfg     MeshConfig
	rng     *sim.Rand
	pending []testMessage
	id      uint64
	now     sim.Cycle
}

var controller = Coord{0, 0}

func (d *dnTraffic) send(src, dst Coord, flits int) {
	d.id++
	d.pending = append(d.pending, testMessage{ID: d.id, Src: src, Dst: dst, Flits: flits})
}

// cycle launches a search with probability rate, offers everything
// pending, steps the mesh and picks up every delivery.
func (d *dnTraffic) cycle(rate float64) {
	if len(d.pending) < 64 && d.rng.Bool(rate) {
		col := d.rng.Intn(d.cfg.Width)
		for row := 1; row < d.cfg.Height; row++ {
			d.send(controller, Coord{col, row}, 1)
		}
	}
	rest := d.pending[:0]
	for _, msg := range d.pending {
		if !d.m.Inject(msg, d.now) {
			rest = append(rest, msg)
		}
	}
	d.pending = rest
	d.m.Step(d.now)
	for n := d.m.NextDelivery(0); n >= 0; n = d.m.NextDelivery(n + 1) {
		at := Coord{n % d.cfg.Width, n / d.cfg.Width}
		for _, ok := d.m.EjectOne(at); ok; _, ok = d.m.EjectOne(at) {
			if at != controller {
				flits := 1
				if d.rng.Bool(0.25) {
					flits = 5
				}
				d.send(at, controller, flits)
			}
		}
	}
	d.now++
}

// BenchmarkMeshStep steps a DN-4x8-shaped mesh (8x5: a controller row
// under four bank rows; 4 VCs of depth 4) under the D-NUCA's traffic
// shape, one cycle per op, and reports host time per flit hop.
func BenchmarkMeshStep(b *testing.B) {
	cfg := MeshConfig{Width: 8, Height: 5, VCs: 4, VCDepth: 4}
	const rate = 0.02 // searches launched per cycle
	d := &dnTraffic{m: NewMesh[struct{}](cfg), cfg: cfg, rng: sim.NewRand(1), pending: make([]testMessage, 0, 256)}
	for i := 0; i < 20_000; i++ {
		d.cycle(rate) // queues and the pool reach their high-water marks
	}
	hops := d.m.FlitHops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.cycle(rate)
	}
	b.StopTimer()
	if moved := d.m.FlitHops - hops; moved > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/flit-hop")
		b.ReportMetric(float64(moved)/float64(b.N), "flit-hops/op")
	}
}
