package mem

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// wnode is a synthetic wired component over real channels. It sits below
// up (pops up.Down) and above down (pushes down.Down); either may be nil.
// Each cycle it forwards one item from up to down, or, with no down,
// consumes one once the cycle reaches acceptFrom; it also pushes an item
// of its own at each cycle of at. It logs what it did and when, and
// counts the kernel's calls into it.
type wnode struct {
	name       string
	up, down   *Port
	at         []sim.Cycle // cycles at which to push an own item, ascending
	acceptFrom sim.Cycle   // a sink consumes from this cycle on
	busyUntil  sim.Cycle   // active on every cycle before this one

	log                    []string
	polls, evals, commits  uint64
	skipped                uint64 // cycles covered by SkipTo
	commitAt, canPushAfter []sim.Cycle
	pollAt, evalAt         []sim.Cycle
}

func (n *wnode) Name() string { return n.name }

func (n *wnode) Wire(w sim.Waker) {
	if n.up != nil {
		n.up.WireBelow(w)
	}
	if n.down != nil {
		n.down.WireAbove(w)
	}
}

func (n *wnode) canTake(now sim.Cycle) bool {
	if n.up == nil || n.up.Down.Len() == 0 {
		return false
	}
	if n.down == nil {
		return now >= n.acceptFrom
	}
	return n.down.Down.CanPush()
}

func (n *wnode) ownDue(now sim.Cycle) bool {
	return len(n.at) > 0 && n.at[0] <= now && n.down != nil && n.down.Down.CanPush()
}

func (n *wnode) Eval(k *sim.Kernel) {
	now := k.Cycle()
	n.evals++
	n.evalAt = append(n.evalAt, now)
	if n.down != nil && n.down.Down.CanPush() {
		n.canPushAfter = append(n.canPushAfter, now)
	}
	if n.canTake(now) {
		req, _ := n.up.Down.Pop()
		n.log = append(n.log, fmt.Sprintf("%d take %d", now, req.ID))
		if n.down != nil {
			n.down.Down.Push(req)
		}
	} else if n.ownDue(now) {
		n.log = append(n.log, fmt.Sprintf("%d push %d", now, n.at[0]))
		n.down.Down.Push(Req{ID: uint64(n.at[0])})
		n.at = n.at[1:]
	}
}

func (n *wnode) Commit(k *sim.Kernel) {
	n.commits++
	n.commitAt = append(n.commitAt, k.Cycle())
	if n.down != nil {
		n.down.Down.Tick()
	}
}

func (n *wnode) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	n.polls++
	n.pollAt = append(n.pollAt, now)
	if now < n.busyUntil || n.canTake(now) || n.ownDue(now) {
		return 0, false
	}
	wake := sim.Never
	if n.up != nil && n.up.Down.Len() > 0 && n.down == nil && now < n.acceptFrom {
		wake = n.acceptFrom
	}
	if len(n.at) > 0 && n.at[0] > now && n.at[0] < wake {
		wake = n.at[0]
	}
	return wake, true
}

func (n *wnode) SkipTo(from, to sim.Cycle) { n.skipped += to - from }

// chain links nodes through ports of depth capacity: node i is above
// port i, node i+1 below it.
func chain(capacity int, nodes ...*wnode) {
	for i := 0; i+1 < len(nodes); i++ {
		p := NewPort(capacity, capacity)
		nodes[i].down, nodes[i+1].up = p, p
	}
}

func kernelOf(gated bool, nodes ...*wnode) *sim.Kernel {
	k := sim.NewKernel()
	k.SetGating(gated)
	for _, n := range nodes {
		k.MustRegister(n)
	}
	return k
}

// checkCovered requires every node's Evals and skipped cycles to add up
// to the clock: no owed SkipTo is left when Run returns.
func checkCovered(t *testing.T, k *sim.Kernel, nodes ...*wnode) {
	t.Helper()
	for _, n := range nodes {
		if got := n.evals + n.skipped; got != k.Cycle() {
			t.Fatalf("cycle %d: %s evals %d + skipped %d = %d", k.Cycle(), n.name, n.evals, n.skipped, got)
		}
	}
}

// TestSleeperWokenByPublish: a consumer asleep on an empty channel takes
// the item the cycle after its producer's Tick publishes it, although a
// busy peer keeps the machine from fast-forwarding and nothing polls it
// in between.
func TestSleeperWokenByPublish(t *testing.T) {
	src := &wnode{name: "src", at: []sim.Cycle{100}}
	dst := &wnode{name: "dst"}
	busy := &wnode{name: "busy", busyUntil: 300}
	chain(4, src, dst)
	k := kernelOf(true, src, dst, busy)
	k.Run(300)

	if want := []string{"101 take 100"}; !reflect.DeepEqual(dst.log, want) {
		t.Fatalf("dst log %q, want %q", dst.log, want)
	}
	// Evaluated on the first cycle and on the one after the publish, and
	// polled on the cycle after each.
	if dst.polls != 2 || dst.evals != 2 {
		t.Errorf("dst polled %d times and evaluated %d, want 2 and 2", dst.polls, dst.evals)
	}
	checkCovered(t, k, src, dst, busy)
	if k.FastForwards != 0 {
		t.Errorf("%d fast-forwards with a peer busy on every cycle", k.FastForwards)
	}
}

// TestSleeperWokenByPop: a producer asleep on a full channel is woken by
// its consumer's Pop. It Commits that same cycle, so its Tick makes the
// space visible, and sees CanPush in its Eval on the next cycle, when it
// pushes.
func TestSleeperWokenByPop(t *testing.T) {
	src := &wnode{name: "src", at: []sim.Cycle{0, 1, 2}}
	dst := &wnode{name: "dst", acceptFrom: 50}
	chain(2, src, dst)
	k := kernelOf(true, src, dst)
	k.Run(100)

	want := []string{"0 push 0", "1 push 1", "51 push 2"}
	if !reflect.DeepEqual(src.log, want) {
		t.Fatalf("src log %q, want %q", src.log, want)
	}
	if !contains(src.commitAt, 50) {
		t.Errorf("src committed at %v, not on the pop's cycle 50", src.commitAt)
	}
	if !contains(src.canPushAfter, 51) {
		t.Errorf("src saw CanPush at %v, not on cycle 51", src.canPushAfter)
	}
	// Asleep from cycle 2 (the channel full) to the pop.
	if src.polls > 6 {
		t.Errorf("src polled %d times; a sleeper is not polled", src.polls)
	}
	checkCovered(t, k, src, dst)
}

// TestSleeperWokenByTimer: a component asleep with a wake cycle is
// evaluated again at that cycle, not before, while a peer keeps the
// machine busy.
func TestSleeperWokenByTimer(t *testing.T) {
	src := &wnode{name: "src", at: []sim.Cycle{500}}
	dst := &wnode{name: "dst"}
	busy := &wnode{name: "busy", busyUntil: 1000}
	chain(4, src, dst)
	k := kernelOf(true, src, dst, busy)
	k.Run(1000)

	if want := []string{"500 push 500"}; !reflect.DeepEqual(src.log, want) {
		t.Fatalf("src log %q, want %q", src.log, want)
	}
	// Evaluated on the first cycle, the wake cycle and the cycle after
	// dst's pop woke it; polled on the cycle after each.
	if src.polls != 3 || src.evals != 3 {
		t.Errorf("src polled %d times and evaluated %d, want 3 and 3", src.polls, src.evals)
	}
	if want := []string{"501 take 500"}; !reflect.DeepEqual(dst.log, want) {
		t.Fatalf("dst log %q, want %q", dst.log, want)
	}
	checkCovered(t, k, src, dst, busy)
}

// TestWokenSleeperEvaluatesWithoutAPoll: a publish that wakes a sleeping
// consumer has it evaluated on the next cycle, and the kernel does not
// ask its NextEvent on that cycle: only input arrived, and Eval decides
// what to do with it.
func TestWokenSleeperEvaluatesWithoutAPoll(t *testing.T) {
	src := &wnode{name: "src", at: []sim.Cycle{100}}
	dst := &wnode{name: "dst"}
	busy := &wnode{name: "busy", busyUntil: 300}
	chain(4, src, dst)
	k := kernelOf(true, src, dst, busy)
	k.Run(300)

	if want := []string{"101 take 100"}; !reflect.DeepEqual(dst.log, want) {
		t.Fatalf("dst log %q, want %q", dst.log, want)
	}
	if !contains(dst.evalAt, 101) {
		t.Errorf("dst evaluated at %v, not on the cycle after the publish", dst.evalAt)
	}
	if contains(dst.pollAt, 101) {
		t.Errorf("dst polled at %v: a woken sleeper is evaluated without a poll", dst.pollAt)
	}
	checkCovered(t, k, src, dst, busy)
}

// lastEval is a consumer that is not wired — no channel can wake it —
// and whose NextEvent reports what its last Eval did: idle unless it
// took an item, and active before its first Eval.
type lastEval struct {
	node      *wnode
	evaluated bool
	took      bool
}

func (l *lastEval) Name() string              { return l.node.Name() }
func (l *lastEval) Commit(k *sim.Kernel)      { l.node.Commit(k) }
func (l *lastEval) SkipTo(from, to sim.Cycle) { l.node.SkipTo(from, to) }

func (l *lastEval) Eval(k *sim.Kernel) {
	before := len(l.node.log)
	l.node.Eval(k)
	l.evaluated, l.took = true, len(l.node.log) > before
}

func (l *lastEval) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	if !l.evaluated {
		return 0, false
	}
	return sim.Never, !l.took
}

// TestUnwiredRecordConsumesAPublish: a component that is not wired is
// evaluated on every cycle, so one whose NextEvent only reports its last
// Eval still consumes an item published to it. Were it put to sleep on
// that report, nothing would wake it: its channel has no waker.
func TestUnwiredRecordConsumesAPublish(t *testing.T) {
	src := &wnode{name: "src", at: []sim.Cycle{100}}
	dst := &lastEval{node: &wnode{name: "dst"}}
	chain(4, src, dst.node)
	k := sim.NewKernel()
	k.MustRegister(src)
	k.MustRegister(dst)
	k.Run(300)

	if want := []string{"101 take 100"}; !reflect.DeepEqual(dst.node.log, want) {
		t.Fatalf("dst log %q, want %q", dst.node.log, want)
	}
	if dst.node.evals != 300 {
		t.Errorf("dst evaluated %d times in 300 cycles, want every cycle", dst.node.evals)
	}
}

// TestDeferredSkipToExactWhenRunReturns: whatever the Run sizes — single
// cycles across a wake, a window that ends inside a fast-forward, one
// that ends on a Stop-free boundary — every sleeper's owed SkipTo is paid
// by the time Run returns.
func TestDeferredSkipToExactWhenRunReturns(t *testing.T) {
	src := &wnode{name: "src", at: []sim.Cycle{40, 41, 300, 301, 302}}
	mid := &wnode{name: "mid"}
	dst := &wnode{name: "dst", acceptFrom: 200}
	busy := &wnode{name: "busy", busyUntil: 120}
	chain(1, src, mid, dst)
	k := kernelOf(true, src, mid, dst, busy)
	for _, n := range []uint64{1, 1, 37, 1, 1, 1, 60, 1, 99, 1, 1, 150, 1, 1, 100} {
		k.Run(n)
		checkCovered(t, k, src, mid, dst, busy)
	}
	if k.FastForwards == 0 || k.EvalsSkipped == 0 {
		t.Fatalf("fast-forwards %d, skipped Evals %d: the schedule exercised no sleeping", k.FastForwards, k.EvalsSkipped)
	}
}

// schedule builds a chain of n nodes with staggered own pushes, a slow
// sink and a busy spell, so sleeps of every kind happen.
func schedule(n int) []*wnode {
	nodes := make([]*wnode, n)
	for i := range nodes {
		nodes[i] = &wnode{name: fmt.Sprintf("n%02d", i)}
		if i%3 == 0 && i < n-1 {
			nodes[i].at = []sim.Cycle{sim.Cycle(7 * i), sim.Cycle(7*i + 1), sim.Cycle(400 + 13*i)}
		}
	}
	nodes[n-1].acceptFrom = 250
	nodes[n/2].busyUntil = 90
	chain(2, nodes...)
	return nodes
}

// runSchedule runs a schedule of n nodes in uneven windows and returns
// everything the nodes observed, and the kernel.
func runSchedule(n int, gated bool) ([]string, *sim.Kernel) {
	nodes := schedule(n)
	k := kernelOf(gated, nodes...)
	for _, w := range []uint64{3, 100, 1, 1, 200, 500} {
		k.Run(w)
	}
	var out []string
	for _, nd := range nodes {
		out = append(out, fmt.Sprintf("%s evals+skipped=%d %q", nd.name, nd.evals+nd.skipped, nd.log))
	}
	return out, k
}

// TestSleepingKernelEqualsLockstep: a 27-component chain (MaxCMPCores'
// worth) computes under the sleeping kernel exactly what it computes in
// lockstep, and a 65-component one, past the kernel's one-word masks,
// steps in lockstep and computes the same as with gating off.
func TestSleepingKernelEqualsLockstep(t *testing.T) {
	for _, n := range []int{27, 65} {
		gated, k := runSchedule(n, true)
		lockstep, _ := runSchedule(n, false)
		if !reflect.DeepEqual(gated, lockstep) {
			for i := range gated {
				if gated[i] != lockstep[i] {
					t.Fatalf("%d components: gated %s\nlockstep %s", n, gated[i], lockstep[i])
				}
			}
		}
		switch {
		case n <= 64 && k.SkippedCycles == 0:
			t.Errorf("%d components: nothing fast-forwarded", n)
		case n > 64 && (k.SkippedCycles != 0 || k.EvalsSkipped != 0):
			t.Errorf("%d components: skipped %d cycles and %d Evals, want lockstep", n, k.SkippedCycles, k.EvalsSkipped)
		}
	}
}

// TestArbiterSkipToReadsThePoll: SkipTo charges conflicts to the sources
// that were waiting at the arbiter's last Eval, which did not act, not
// to one whose request was published while it slept.
func TestArbiterSkipToReadsThePoll(t *testing.T) {
	up := []*Port{NewPort(4, 4), NewPort(4, 4)}
	down := NewPort(1, 1)
	arb, err := NewArbiter(ArbiterConfig{}, up, down)
	if err != nil {
		t.Fatal(err)
	}
	down.Down.Push(Req{ID: 1, Kind: Read}) // the shared port is full: no grant
	down.Down.Tick()
	up[0].Down.Push(Req{ID: 2, Kind: Read})
	up[0].Down.Tick()
	arb.Eval(sim.NewKernel())
	if _, idle := arb.NextEvent(10); !idle {
		t.Fatal("arbiter with a full shared port reported active")
	}
	up[1].Down.Push(Req{ID: 3, Kind: Read}) // arrives during the sleep
	up[1].Down.Tick()
	arb.SkipTo(10, 15)
	if want := []uint64{6, 0}; !reflect.DeepEqual(arb.Conflicts, want) {
		t.Fatalf("conflicts %v, want %v", arb.Conflicts, want)
	}
}

func contains(cs []sim.Cycle, c sim.Cycle) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}
