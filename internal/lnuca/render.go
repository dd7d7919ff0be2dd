package lnuca

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/noc"
)

// RenderLatencyGrid draws the Fig. 2(c)-style latency map: the fabric
// grid with each tile's service latency, the r-tile marked "1".
func (g *Geometry) RenderLatencyGrid() string {
	r := g.Levels - 1
	var b strings.Builder
	fmt.Fprintf(&b, "L-NUCA %d levels — tile service latencies (Fig. 2(c))\n", g.Levels)
	for y := r; y >= 0; y-- {
		for x := -r; x <= r; x++ {
			switch id, ok := g.byPos[noc.Coord{X: x, Y: y}]; {
			case ok:
				fmt.Fprintf(&b, "%3d", g.Sites[id].Latency)
			case x == 0 && y == 0:
				b.WriteString("  1") // the r-tile
			default:
				b.WriteString("  .")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("processor cache ports below the bottom row; '1' is the r-tile\n")
	return b.String()
}

// network selects which Fig. 2 topology to render.
type network int

// Network selectors for rendering.
const (
	// SearchNet is the broadcast tree of Fig. 2(a).
	SearchNet network = iota
	// TransportNet is the inward 2-D mesh of Fig. 2(b).
	TransportNet
	// ReplacementNet is the latency-ordered topology of Fig. 2(c).
	ReplacementNet
)

func (n network) String() string {
	switch n {
	case SearchNet:
		return "search"
	case TransportNet:
		return "transport"
	case ReplacementNet:
		return "replacement"
	default:
		return "net?"
	}
}

// NetworkByName maps a CLI name to a selector.
func NetworkByName(s string) (network, bool) {
	switch s {
	case "search":
		return SearchNet, true
	case "transport":
		return TransportNet, true
	case "replacement", "replace":
		return ReplacementNet, true
	default:
		return 0, false
	}
}

// edges lists one network's unidirectional links as (from, to) site IDs
// with RTileID for the root tile; exit links use the sentinel -2.
const exitID = -2

func (g *Geometry) edges(n network) [][2]int {
	var out [][2]int
	switch n {
	case SearchNet:
		for _, id := range g.RTileSearchChildren {
			out = append(out, [2]int{RTileID, id})
		}
		for i := range g.Sites {
			for _, c := range g.Sites[i].SearchChildren {
				out = append(out, [2]int{i, c})
			}
		}
	case TransportNet:
		for i := range g.Sites {
			for _, dst := range g.Sites[i].TransportOut {
				out = append(out, [2]int{i, dst})
			}
		}
	case ReplacementNet:
		for _, dst := range g.RTileReplaceOut {
			out = append(out, [2]int{RTileID, dst})
		}
		for i := range g.Sites {
			for _, dst := range g.Sites[i].ReplaceOut {
				out = append(out, [2]int{i, dst})
			}
			if g.Sites[i].ExitsToNextLevel {
				out = append(out, [2]int{i, exitID})
			}
		}
	}
	return out
}

func (g *Geometry) nodeName(id int) string {
	switch id {
	case RTileID:
		return "rtile"
	case exitID:
		return "next_level"
	default:
		p := g.Sites[id].Pos
		return fmt.Sprintf("t_%d_%d", p.X+16, p.Y) // offset keeps names DOT-safe
	}
}

func (g *Geometry) nodeLabel(id int) string {
	switch id {
	case RTileID:
		return "r-tile (1)"
	case exitID:
		return "to next cache level"
	default:
		s := g.Sites[id]
		return fmt.Sprintf("(%d,%d) lat %d", s.Pos.X, s.Pos.Y, s.Latency)
	}
}

// RenderDOT emits a Graphviz description of one network (Fig. 2(a)-(c)).
func (g *Geometry) RenderDOT(n network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph lnuca_%s {\n", n)
	b.WriteString("  rankdir=BT;\n  node [shape=box];\n")
	seen := map[int]bool{}
	edges := g.edges(n)
	for _, e := range edges {
		for _, id := range e[:] {
			if !seen[id] {
				seen[id] = true
				fmt.Fprintf(&b, "  %s [label=%q", g.nodeName(id), g.nodeLabel(id))
				if id == RTileID {
					b.WriteString(", style=bold")
				}
				b.WriteString("];\n")
			}
		}
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "  %s -> %s;\n", g.nodeName(e[0]), g.nodeName(e[1]))
	}
	b.WriteString("}\n")
	return b.String()
}

// RenderSummary prints the per-network link accounting the paper argues
// with in Section III.A.
func (g *Geometry) RenderSummary() string {
	var b strings.Builder
	c := DefaultConfig(g.Levels)
	fmt.Fprintf(&b, "L-NUCA %d levels: %d tiles + r-tile (%d KB with %dKB tiles and a %dKB r-tile)\n",
		g.Levels, g.NumTiles(), CapacityKB(g.Levels), c.TileBank.SizeBytes>>10, c.RTileBank.SizeBytes>>10)
	fmt.Fprintf(&b, "  search network:      %3d links (broadcast tree, one per tile — the minimum)\n", g.SearchLinks())
	fmt.Fprintf(&b, "  transport network:   %3d links (inward 2-D mesh, path diversity)\n", g.TransportLinks())
	fmt.Fprintf(&b, "  replacement network: %3d links (latency-ordered domino chains)\n", g.ReplacementLinks())
	fmt.Fprintf(&b, "  max service latency: %d cycles; replacement depth to exit corners: %d hops\n",
		g.MaxLatency(), g.ReplacementDepth())
	byLat := map[int]int{}
	for i := range g.Sites {
		byLat[g.Sites[i].Latency]++
	}
	var lats []int
	for l := range byLat {
		lats = append(lats, l)
	}
	sort.Ints(lats)
	b.WriteString("  tiles by latency:")
	for _, l := range lats {
		fmt.Fprintf(&b, " %d:%d", l, byLat[l])
	}
	b.WriteByte('\n')
	return b.String()
}
