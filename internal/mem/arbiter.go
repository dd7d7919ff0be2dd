package mem

import (
	"fmt"

	"repro/internal/sim"
)

// ArbiterConfig parameterizes a shared-port Arbiter.
type ArbiterConfig struct {
	// Name identifies the arbiter component.
	Name string
	// GrantsPerCycle bounds how many requests cross the shared port per
	// cycle (the bandwidth of the bus into the shared structure).
	// Default 1: one request slot per cycle, the Table I single-port LLC.
	GrantsPerCycle int
	// RespPerCycle bounds how many responses are routed back up per
	// cycle. Default 1.
	RespPerCycle int
}

// Arbiter multiplexes N upstream ports onto one downstream port: the
// shared-resource entry point of a chip-multiprocessor, where per-core
// private hierarchies contend for the single port of the shared LLC (and,
// behind it, the main-memory channel). Requests are granted round-robin
// with a rotating priority pointer, so under saturation every source gets
// the same bandwidth regardless of index or registration order; responses
// are routed back to the requesting source by request ID.
//
// Like every component, the arbiter observes only latched channel state
// during Eval and publishes during Commit, so simulation results are
// independent of the order components were registered in.
type Arbiter struct {
	cfg  ArbiterConfig
	up   []*Port
	down *Port

	next  int            // round-robin priority pointer
	owner map[uint64]int // request ID -> upstream index, for response routing

	sim.Activity

	// Stats.
	Granted []uint64 // requests forwarded, per source
	// Conflicts counts cycles a source ended with requests still queued
	// — it wanted more bandwidth than it got this cycle, whether or not
	// one of its requests was granted. The saturation signal.
	Conflicts   []uint64
	RespRouted  uint64
	RespOrphans uint64 // responses whose ID matched no tracked read
}

// NewArbiter wires upstream ports onto the shared downstream port. The
// arbiter owns pushes to every up[i].Up and to down.Down (and Ticks them);
// the component behind down owns down.Up, the per-core sides own up[i].Down.
func NewArbiter(cfg ArbiterConfig, up []*Port, down *Port) (*Arbiter, error) {
	if len(up) == 0 {
		return nil, fmt.Errorf("mem: arbiter %q needs at least one upstream port", cfg.Name)
	}
	if cfg.Name == "" {
		cfg.Name = "arbiter"
	}
	if cfg.GrantsPerCycle <= 0 {
		cfg.GrantsPerCycle = 1
	}
	if cfg.RespPerCycle <= 0 {
		cfg.RespPerCycle = 1
	}
	a := &Arbiter{
		cfg:       cfg,
		up:        up,
		down:      down,
		owner:     make(map[uint64]int),
		Granted:   make([]uint64, len(up)),
		Conflicts: make([]uint64, len(up)),
	}
	for i := range a.Conflicts {
		a.Track(&a.Conflicts[i])
	}
	return a, nil
}

// Name implements sim.Component.
func (a *Arbiter) Name() string { return a.cfg.Name }

// Eval implements sim.Component: route matured responses up, then grant
// pending requests down round-robin within the cycle's bandwidth.
func (a *Arbiter) Eval(k *sim.Kernel) {
	a.Begin()
	// Responses: in-order per the downstream channel. A response whose
	// destination queue is full blocks the ones behind it (head-of-line),
	// which models the single return bus.
	for n := 0; n < a.cfg.RespPerCycle; n++ {
		resp, ok := a.down.Up.Peek()
		if !ok {
			break
		}
		src, known := a.owner[resp.ID]
		if !known {
			// No requester to deliver to; drop (e.g. an unexpected ack).
			a.Acted()
			a.down.Up.Pop()
			a.RespOrphans++
			continue
		}
		if !a.up[src].Up.CanPush() {
			break
		}
		a.Acted()
		a.down.Up.Pop()
		delete(a.owner, resp.ID)
		a.up[src].Up.Push(resp)
		a.RespRouted++
	}

	// Requests: scan sources starting at the priority pointer; after each
	// grant the pointer moves past the granted source, which is what makes
	// the schedule round-robin rather than fixed-priority.
	granted := 0
	for granted < a.cfg.GrantsPerCycle && a.down.Down.CanPush() {
		gi := -1
		for o := 0; o < len(a.up); o++ {
			i := (a.next + o) % len(a.up)
			if a.up[i].Down.Len() > 0 {
				gi = i
				break
			}
		}
		if gi < 0 {
			break
		}
		a.Acted()
		req, _ := a.up[gi].Down.Pop()
		// Only reads produce responses in this hierarchy (writes and
		// writebacks are absorbed downstream); tracking anything else
		// would leak owner entries for the whole run.
		if req.Kind == Read {
			a.owner[req.ID] = gi
		}
		a.down.Down.Push(req)
		a.Granted[gi]++
		a.next = (gi + 1) % len(a.up)
		granted++
	}
	// A source with work that got no grant this cycle experienced
	// contention; the counter is the saturation signal /metrics exposes.
	for i := range a.up {
		if a.up[i].Down.Len() > 0 {
			a.Conflicts[i]++
		}
	}
}

// Commit implements sim.Component.
func (a *Arbiter) Commit(k *sim.Kernel) {
	a.down.Down.Tick()
	for _, p := range a.up {
		p.Up.Tick()
	}
}

// Wire implements sim.Wired: the arbiter is below every source's port
// and above the shared one.
func (a *Arbiter) Wire(w sim.Waker) {
	for _, p := range a.up {
		p.WireBelow(w)
	}
	a.down.WireAbove(w)
}

// InFlight returns the number of requests forwarded down whose responses
// have not yet been routed back.
func (a *Arbiter) InFlight() int { return len(a.owner) }

// TotalGrants sums grants over all sources.
func (a *Arbiter) TotalGrants() uint64 {
	var t uint64
	for _, g := range a.Granted {
		t += g
	}
	return t
}
