// Package hotuse embeds hot.Meter in a Component-shaped Gauge, which
// declares no SkipTo of its own.
package hotuse

import "hot"

type Gauge struct{ hot.Meter }

func (g *Gauge) Eval()   { g.Begin() }
func (g *Gauge) Commit() {}
