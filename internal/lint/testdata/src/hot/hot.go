// Package hot exercises the hotalloc analyzer: Pump is
// Component-shaped (Eval+Commit), so everything reachable from its
// Eval/Commit/NextEvent/SkipTo — and from Kernel.Step/Run — is hot;
// Setup is cold and may allocate freely.
package hot

import "fmt"

type req struct{ id int }

type Pump struct {
	q    []int
	tick int
	m    map[int]int
	out  []*req
	held interface{}
}

// last is a package-level any that hot code must not box into.
var last any

func (p *Pump) Eval() {
	p.q = append(p.q, p.tick) // want `append in Eval .* may grow its backing array`
	buf := make([]int, 4)     // want `make in Eval .* allocates`
	_ = buf
	p.fill()
	p.box()
}

// box is hot through Eval: each store of a concrete value into an
// interface boxes it; nil, another interface and the blank do not.
func (p *Pump) box() {
	last = p.tick         // want `assignment to an interface in box .* boxes its value`
	p.held, p.tick = p, 0 // want `assignment to an interface in box .* boxes its value`
	var v any = p.tick    // want `assignment to an interface in box .* boxes its value`
	last, p.held = nil, v
	_ = p.tick
}

func (p *Pump) Commit() {
	p.tick++
	f := func() int { return p.tick } // want `closure literal in Commit .* allocates per construction`
	_ = f
}

// fill is hot only transitively, through Eval's call.
func (p *Pump) fill() {
	p.out = append(p.out, &req{id: p.tick}) // want `append in fill .*` `&composite literal in fill .* escapes to the heap`
	for k := range p.m {                    // want `map iteration in fill .* hashes every cycle`
		_ = k
	}
}

// SkipTo is the Quiescent fast-forward hook: a deliberate break showing
// that allocations hiding in the skip path are caught too.
func (p *Pump) SkipTo(target int) {
	label := "skip" + fmt.Sprint(target) // want `string concatenation in SkipTo .* allocates` `fmt.Sprint in SkipTo .* allocates and boxes`
	_ = label
	p.tick = target
}

// Setup is cold: identical constructs, zero findings.
func Setup() *Pump {
	last = 1
	return &Pump{m: map[int]int{}, q: make([]int, 0, 8)}
}

type Kernel struct {
	comps []*Pump
}

func (k *Kernel) Step() {
	for _, c := range k.comps {
		c.Eval()
	}
	s := new(int) // want `new in Step .* allocates`
	_ = s
}

// Meter is a record that package hotuse embeds in a component, so its
// methods are hot roots, the promoted SkipTo among them.
type Meter struct{ seen []int }

func (m *Meter) Begin()              { m.seen = append(m.seen, 0) }    // want `append in Begin \(hot: reachable from Meter.Begin\)`
func (m *Meter) SkipTo(from, to int) { m.seen = make([]int, to-from) } // want `make in SkipTo \(hot: reachable from Meter.SkipTo\) allocates`

// Tuner has an Eval but no Commit: not Component-shaped, so its Eval is
// not a hot root and may allocate.
type Tuner struct{}

func (t *Tuner) Eval() []int {
	return make([]int, 16)
}
