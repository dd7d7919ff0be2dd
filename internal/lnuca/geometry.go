// Package lnuca implements the paper's contribution: the Light NUCA cache
// fabric. Small one-cycle tiles surround the root tile (r-tile, the L1)
// in growing half-ring levels, connected by three specialized
// unidirectional networks — Search (broadcast tree, outward), Transport
// (2-D mesh, inward) and Replacement (latency-ordered chains, outward) —
// with headerless messages, distributed random routing, store-and-forward
// On/Off flow control and two-entry link buffers (Sections II and III).
package lnuca

import (
	"fmt"

	"repro/internal/noc"
)

// RTileID is the sentinel site ID for the root tile.
const RTileID = -1

// Site is one tile position in the fabric with its network wiring.
type Site struct {
	ID    int
	Pos   noc.Coord
	Level int // 2..Levels (the r-tile alone is level 1)
	// Latency is the service latency in cycles assuming 1-cycle tiles:
	// level + Manhattan distance to the r-tile (reproduces Fig. 2(c)).
	Latency int

	// SearchParent feeds this tile's MA register (RTileID for level 2).
	SearchParent int
	// SearchChildren receive the miss when this tile misses.
	SearchChildren []int

	// TransportOut lists the inward 2-D mesh neighbours (RTileID when the
	// link ends at the root tile). Every link strictly decreases the
	// distance to the r-tile, so any random choice is a valid route.
	TransportOut []int
	// TransportIn lists tiles whose transport links end here.
	TransportIn []int

	// ReplaceOut lists the neighbours with latency exactly one larger
	// (empty only for the outermost upper-corner tiles, which evict to
	// the next cache level instead).
	ReplaceOut []int
	// ReplaceIn lists tiles (or the r-tile) that evict into this tile.
	ReplaceIn []int
	// ReplaceFromRTile marks the level-2 tiles that receive the r-tile's
	// victims (the paper's stated exception to the +1 rule).
	ReplaceFromRTile bool
	// ExitsToNextLevel marks the upper-corner tiles of the outermost
	// level — the only tiles that evict blocks out of the fabric.
	ExitsToNextLevel bool
}

// Geometry is the static structure of an L-NUCA with a given level count.
type Geometry struct {
	Levels int
	Sites  []Site
	byPos  map[noc.Coord]int
	// RTileReplaceOut lists the sites receiving r-tile victims.
	RTileReplaceOut []int
	// RTileTransportIn lists the sites whose transport links end at the
	// r-tile.
	RTileTransportIn []int
	// RTileSearchChildren lists the level-2 sites (the broadcast roots).
	RTileSearchChildren []int
}

// RingSize returns the number of tiles in level k (k >= 2): 4(k-1)+1.
func RingSize(k int) int { return 4*(k-1) + 1 }

// NumTilesForLevels returns the tile count (r-tile excluded) of an
// n-level L-NUCA: 5, 14, 27 for n = 2, 3, 4 as in the paper.
func NumTilesForLevels(n int) int {
	total := 0
	for k := 2; k <= n; k++ {
		total += RingSize(k)
	}
	return total
}

// CapacityKB returns the total capacity of an n-level L-NUCA of Table I
// tiles, the r-tile plus one tile bank per tile: 72, 144, 248 for n = 2,
// 3, 4.
func CapacityKB(n int) int {
	c := DefaultConfig(n)
	return (c.RTileBank.SizeBytes + NumTilesForLevels(n)*c.TileBank.SizeBytes) >> 10
}

// NewGeometry constructs the fabric structure for the given number of
// levels (including the r-tile level, so levels >= 2).
func NewGeometry(levels int) (*Geometry, error) {
	if levels < 2 {
		return nil, fmt.Errorf("lnuca: need at least 2 levels, got %d", levels)
	}
	g := &Geometry{Levels: levels, byPos: make(map[noc.Coord]int)}

	// Lay out the rings: level k occupies { (x,y): max(|x|,y)=k-1, y>=0 },
	// enumerated left-bottom, up the left side, across the top, down the
	// right side, for a deterministic ID order.
	for k := 2; k <= levels; k++ {
		r := k - 1
		var ring []noc.Coord
		for y := 0; y <= r; y++ {
			ring = append(ring, noc.Coord{X: -r, Y: y})
		}
		for x := -r + 1; x <= r-1; x++ {
			ring = append(ring, noc.Coord{X: x, Y: r})
		}
		for y := r; y >= 0; y-- {
			ring = append(ring, noc.Coord{X: r, Y: y})
		}
		for _, pos := range ring {
			id := len(g.Sites)
			g.Sites = append(g.Sites, Site{
				ID:      id,
				Pos:     pos,
				Level:   k,
				Latency: k + noc.Manhattan(pos, noc.Coord{}),
			})
			g.byPos[pos] = id
		}
	}

	g.wireSearch()
	g.wireTransport()
	g.wireReplacement()
	return g, nil
}

// MustGeometry is NewGeometry that panics on error, for wiring code.
func MustGeometry(levels int) *Geometry {
	g, err := NewGeometry(levels)
	if err != nil {
		panic(err)
	}
	return g
}

// SiteAt returns the site ID at pos.
func (g *Geometry) SiteAt(pos noc.Coord) (int, bool) {
	id, ok := g.byPos[pos]
	return id, ok
}

// NumTiles returns the number of tiles (r-tile excluded).
func (g *Geometry) NumTiles() int { return len(g.Sites) }

// ring classifies a position within its ring.
func ringRole(pos noc.Coord, r int) (side, top, corner bool) {
	corner = abs(pos.X) == r && pos.Y == r
	side = abs(pos.X) == r && pos.Y < r
	top = pos.Y == r && abs(pos.X) < r
	return
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// wireSearch builds the broadcast tree: side tiles are fed horizontally,
// top tiles vertically, and corner tiles diagonally from the inner corner
// (which gives corner tiles their three children and keeps the maximum
// distance growth at one hop per level, Section III.A).
func (g *Geometry) wireSearch() {
	for i := range g.Sites {
		s := &g.Sites[i]
		r := s.Level - 1
		var parent noc.Coord
		side, top, corner := ringRole(s.Pos, r)
		switch {
		case corner:
			parent = noc.Coord{X: sign(s.Pos.X) * (r - 1), Y: r - 1}
		case side:
			parent = noc.Coord{X: sign(s.Pos.X) * (r - 1), Y: s.Pos.Y}
		case top:
			parent = noc.Coord{X: s.Pos.X, Y: r - 1}
		}
		if s.Level == 2 {
			s.SearchParent = RTileID
			g.RTileSearchChildren = append(g.RTileSearchChildren, s.ID)
			continue
		}
		pid, ok := g.byPos[parent]
		if !ok {
			panic(fmt.Sprintf("lnuca: search parent %v of %v missing", parent, s.Pos))
		}
		s.SearchParent = pid
		g.Sites[pid].SearchChildren = append(g.Sites[pid].SearchChildren, s.ID)
	}
}

// wireTransport builds the inward 2-D mesh: each tile links to the
// rectilinear neighbours that are strictly closer to the r-tile.
func (g *Geometry) wireTransport() {
	for i := range g.Sites {
		s := &g.Sites[i]
		var outs []noc.Coord
		if s.Pos.X > 0 {
			outs = append(outs, noc.Coord{X: s.Pos.X - 1, Y: s.Pos.Y})
		}
		if s.Pos.X < 0 {
			outs = append(outs, noc.Coord{X: s.Pos.X + 1, Y: s.Pos.Y})
		}
		if s.Pos.Y > 0 {
			outs = append(outs, noc.Coord{X: s.Pos.X, Y: s.Pos.Y - 1})
		}
		for _, o := range outs {
			if o == (noc.Coord{}) {
				s.TransportOut = append(s.TransportOut, RTileID)
				g.RTileTransportIn = append(g.RTileTransportIn, s.ID)
				continue
			}
			oid, ok := g.byPos[o]
			if !ok {
				panic(fmt.Sprintf("lnuca: transport neighbour %v of %v missing", o, s.Pos))
			}
			s.TransportOut = append(s.TransportOut, oid)
			g.Sites[oid].TransportIn = append(g.Sites[oid].TransportIn, s.ID)
		}
	}
}

// wireReplacement links every tile to its 8-neighbourhood tiles whose
// latency is exactly one cycle larger; the r-tile (exception) evicts into
// the latency-3 tiles, and the outermost upper corners exit to the next
// cache level (Fig. 2(c)).
func (g *Geometry) wireReplacement() {
	maxLat := 0
	for i := range g.Sites {
		if g.Sites[i].Latency > maxLat {
			maxLat = g.Sites[i].Latency
		}
	}
	for i := range g.Sites {
		s := &g.Sites[i]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				if dx == 0 && dy == 0 {
					continue
				}
				n := noc.Coord{X: s.Pos.X + dx, Y: s.Pos.Y + dy}
				nid, ok := g.byPos[n]
				if !ok {
					continue
				}
				if g.Sites[nid].Latency == s.Latency+1 {
					s.ReplaceOut = append(s.ReplaceOut, nid)
					g.Sites[nid].ReplaceIn = append(g.Sites[nid].ReplaceIn, s.ID)
				}
			}
		}
		if s.Latency == maxLat {
			s.ExitsToNextLevel = true
		}
		// The r-tile exception: latency-3 tiles receive its victims.
		if s.Latency == 3 {
			s.ReplaceFromRTile = true
			s.ReplaceIn = append(s.ReplaceIn, RTileID)
			g.RTileReplaceOut = append(g.RTileReplaceOut, s.ID)
		}
	}
}

// SearchLinks counts the broadcast-tree links (one per tile: its parent
// link), the minimum possible, as Section III.A argues.
func (g *Geometry) SearchLinks() int { return len(g.Sites) }

// TransportLinks counts the unidirectional inward mesh links.
func (g *Geometry) TransportLinks() int {
	n := 0
	for i := range g.Sites {
		n += len(g.Sites[i].TransportOut)
	}
	return n
}

// ReplacementLinks counts the latency-ordered links, including the
// r-tile's and the two exits to the next cache level.
func (g *Geometry) ReplacementLinks() int {
	n := len(g.RTileReplaceOut)
	for i := range g.Sites {
		n += len(g.Sites[i].ReplaceOut)
		if g.Sites[i].ExitsToNextLevel {
			n++
		}
	}
	return n
}

// MaxLatency returns the service latency of the slowest tile.
func (g *Geometry) MaxLatency() int {
	m := 0
	for i := range g.Sites {
		if g.Sites[i].Latency > m {
			m = g.Sites[i].Latency
		}
	}
	return m
}

// LevelOfLatency returns which tiles to credit for Table III: the sites
// at the given level.
func (g *Geometry) SitesAtLevel(level int) []int {
	var out []int
	for i := range g.Sites {
		if g.Sites[i].Level == level {
			out = append(out, g.Sites[i].ID)
		}
	}
	return out
}

// ReplacementDepth returns the hop count from the r-tile to the exit
// corners along the latency chain: 1 (r-tile to latency 3) + (maxLat - 3)
// further hops. The paper notes this grows by 3 per added level.
func (g *Geometry) ReplacementDepth() int {
	return 1 + (g.MaxLatency() - 3)
}
