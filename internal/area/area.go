// Package area rolls up silicon area for Table II: the conventional
// L1+L2 pair versus L-NUCA organizations of 2..4 levels, splitting each
// L-NUCA total into SRAM and network (buffers, crossbars, link repeaters)
// shares, which the paper reports as 14–19% of the total.
package area

import (
	"repro/internal/hier"
	"repro/internal/lnuca"
	"repro/internal/nocpower"
	"repro/internal/sram"
)

// Conventional returns the baseline L1+L2 area (Table II row 1).
func Conventional() float64 {
	t := hier.DefaultTableI()
	return sram.AreaMM2(hier.SRAM(t.L1)) + sram.AreaMM2(hier.SRAM(t.L2))
}

// Report describes one L-NUCA area roll-up.
type Report struct {
	Levels     int
	RTileMM2   float64
	TilesMM2   float64
	NetworkMM2 float64
	TotalMM2   float64
	NetworkPct float64
	// SavingsVsConventionalPct is positive when the L-NUCA is smaller
	// than the 256KB-L2 baseline.
	SavingsVsConventionalPct float64
}

// LNUCA computes the Table II roll-up for an n-level L-NUCA.
func LNUCA(levels int) Report {
	t := hier.DefaultTableI()
	g := lnuca.MustGeometry(levels)
	rt := sram.AreaMM2(hier.SRAM(t.L1)) // the r-tile is the L1's array
	tiles := float64(g.NumTiles()) * sram.AreaMM2(t.TileSRAM())
	buf, transport, search := t.LNUCA.LinkBufEntries, t.TransportLink, t.SearchLink

	network := 0.0
	for i := range g.Sites {
		s := &g.Sites[i]
		// Per-tile switch: MA register + link buffers on every input, the
		// cut-through transport crossbar (Section III.C: 3 inputs reduce
		// to the 2 D buffers + cache; up to 2 outputs), and the U path.
		r := nocpower.RouterSpec{
			InLinks:       len(s.TransportIn) + len(s.ReplaceIn) + 1, // +1 search
			OutLinks:      len(s.TransportOut) + len(s.ReplaceOut) + len(s.SearchChildren),
			BufferEntries: buf*(len(s.TransportIn)+len(s.ReplaceIn)) + 1, // +MA
			Bits:          transport.Bits,
			CrossbarIn:    3,
			CrossbarOut:   max(len(s.TransportOut), 1),
			AvgLinkMM:     transport.LengthMM,
		}
		network += r.AreaMM2()
		// The search MA path is narrow; charge it separately.
		network += nocpower.RouterSpec{
			BufferEntries: 1,
			Bits:          search.Bits,
			CrossbarIn:    1, CrossbarOut: len(s.SearchChildren),
			AvgLinkMM: search.LengthMM,
		}.AreaMM2()
	}
	// R-tile flow-control extension: input D buffers and victim U path.
	network += nocpower.RouterSpec{
		InLinks:       len(g.RTileTransportIn),
		OutLinks:      len(g.RTileReplaceOut) + len(g.RTileSearchChildren),
		BufferEntries: buf*len(g.RTileTransportIn) + 2,
		Bits:          transport.Bits,
		CrossbarIn:    len(g.RTileTransportIn),
		CrossbarOut:   2,
		AvgLinkMM:     transport.LengthMM,
	}.AreaMM2()

	total := rt + tiles + network
	conv := Conventional()
	return Report{
		Levels:                   levels,
		RTileMM2:                 rt,
		TilesMM2:                 tiles,
		NetworkMM2:               network,
		TotalMM2:                 total,
		NetworkPct:               100 * network / total,
		SavingsVsConventionalPct: 100 * (conv - total) / conv,
	}
}
