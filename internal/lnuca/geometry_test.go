package lnuca

import (
	"testing"

	"repro/internal/noc"
)

func TestRingSizes(t *testing.T) {
	// Section II: Le2 has 5 tiles, each level adds 4 more.
	want := map[int]int{2: 5, 3: 9, 4: 13, 5: 17}
	for k, n := range want {
		if got := RingSize(k); got != n {
			t.Errorf("RingSize(%d) = %d, want %d", k, got, n)
		}
	}
}

func TestCapacitiesMatchPaper(t *testing.T) {
	// LN2 = 72KB, LN3 = 144KB, LN4 = 248KB with 32KB r-tile + 8KB tiles.
	cases := []struct {
		levels, tiles, totalKB int
	}{
		{2, 5, 72},
		{3, 14, 144},
		{4, 27, 248},
	}
	for _, c := range cases {
		if got := NumTilesForLevels(c.levels); got != c.tiles {
			t.Errorf("NumTilesForLevels(%d) = %d, want %d", c.levels, got, c.tiles)
		}
		if got := 32 + 8*NumTilesForLevels(c.levels); got != c.totalKB {
			t.Errorf("capacity(%d levels) = %dKB, want %dKB", c.levels, got, c.totalKB)
		}
	}
}

func TestGeometryRejectsTooFewLevels(t *testing.T) {
	if _, err := NewGeometry(1); err == nil {
		t.Fatal("1-level geometry should be rejected")
	}
	if _, err := NewGeometry(0); err == nil {
		t.Fatal("0-level geometry should be rejected")
	}
}

// TestFig2cLatencies checks every tile latency of the 3-level L-NUCA
// against Fig. 2(c) of the paper.
func TestFig2cLatencies(t *testing.T) {
	g := MustGeometry(3)
	want := map[noc.Coord]int{
		// Level 2.
		{X: -1, Y: 0}: 3, {X: 1, Y: 0}: 3, {X: 0, Y: 1}: 3,
		{X: -1, Y: 1}: 4, {X: 1, Y: 1}: 4,
		// Level 3.
		{X: -2, Y: 0}: 5, {X: 2, Y: 0}: 5, {X: 0, Y: 2}: 5,
		{X: -2, Y: 1}: 6, {X: 2, Y: 1}: 6, {X: -1, Y: 2}: 6, {X: 1, Y: 2}: 6,
		{X: -2, Y: 2}: 7, {X: 2, Y: 2}: 7,
	}
	if g.NumTiles() != len(want) {
		t.Fatalf("NumTiles = %d, want %d", g.NumTiles(), len(want))
	}
	for pos, lat := range want {
		id, ok := g.SiteAt(pos)
		if !ok {
			t.Fatalf("missing site at %v", pos)
		}
		if got := g.Sites[id].Latency; got != lat {
			t.Errorf("latency(%v) = %d, want %d (Fig. 2(c))", pos, got, lat)
		}
	}
	if g.MaxLatency() != 7 {
		t.Errorf("MaxLatency = %d, want 7", g.MaxLatency())
	}
}

func TestSearchTreeIsSpanningTree(t *testing.T) {
	for _, levels := range []int{2, 3, 4, 5, 6} {
		g := MustGeometry(levels)
		// Every site has exactly one parent; children sets partition.
		seen := make(map[int]bool)
		var walk func(ids []int, depth int)
		walk = func(ids []int, depth int) {
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("levels=%d: site %d reached twice", levels, id)
				}
				seen[id] = true
				s := g.Sites[id]
				if s.Level != depth {
					t.Fatalf("levels=%d: site %d at depth %d has level %d",
						levels, id, depth, s.Level)
				}
				walk(s.SearchChildren, depth+1)
			}
		}
		walk(g.RTileSearchChildren, 2)
		if len(seen) != g.NumTiles() {
			t.Fatalf("levels=%d: search tree covers %d of %d tiles",
				levels, len(seen), g.NumTiles())
		}
		// Minimum link count: exactly one inbound link per tile.
		if g.SearchLinks() != g.NumTiles() {
			t.Fatalf("levels=%d: SearchLinks = %d, want %d",
				levels, g.SearchLinks(), g.NumTiles())
		}
	}
}

func TestSearchDepthGrowsByOnePerLevel(t *testing.T) {
	// Section III.A: "the maximum distance is only increased by one hop
	// when adding an L-NUCA level": level k tiles are looked up at
	// search depth k.
	g := MustGeometry(5)
	for i := range g.Sites {
		s := g.Sites[i]
		depth := 1
		for p := s.ID; p != RTileID; p = g.Sites[p].SearchParent {
			depth++
		}
		if depth != s.Level {
			t.Fatalf("site %v: search depth %d != level %d", s.Pos, depth, s.Level)
		}
	}
}

func TestCornerTilesHaveThreeSearchChildren(t *testing.T) {
	g := MustGeometry(4)
	for i := range g.Sites {
		s := g.Sites[i]
		r := s.Level - 1
		_, _, corner := ringRole(s.Pos, r)
		if s.Level == g.Levels {
			if len(s.SearchChildren) != 0 {
				t.Errorf("outermost site %v has children", s.Pos)
			}
			continue
		}
		if corner && len(s.SearchChildren) != 3 {
			t.Errorf("corner %v has %d children, want 3", s.Pos, len(s.SearchChildren))
		}
		if !corner && len(s.SearchChildren) != 1 {
			t.Errorf("non-corner %v has %d children, want 1", s.Pos, len(s.SearchChildren))
		}
	}
}

func TestTransportLinksPointInward(t *testing.T) {
	for _, levels := range []int{2, 3, 4, 5} {
		g := MustGeometry(levels)
		origin := noc.Coord{}
		for i := range g.Sites {
			s := g.Sites[i]
			if len(s.TransportOut) == 0 {
				t.Fatalf("site %v has no transport output", s.Pos)
			}
			for _, o := range s.TransportOut {
				var dst noc.Coord
				if o != RTileID {
					dst = g.Sites[o].Pos
				}
				if noc.Manhattan(dst, origin) != noc.Manhattan(s.Pos, origin)-1 {
					t.Fatalf("transport link %v -> %v does not reduce distance", s.Pos, dst)
				}
			}
			// Tiles off the axes have two output choices (path diversity).
			if s.Pos.X != 0 && s.Pos.Y != 0 && len(s.TransportOut) != 2 {
				t.Errorf("site %v has %d transport outputs, want 2", s.Pos, len(s.TransportOut))
			}
		}
		// The r-tile is fed by exactly its three neighbours.
		if len(g.RTileTransportIn) != 3 {
			t.Errorf("levels=%d: r-tile has %d transport inputs, want 3",
				levels, len(g.RTileTransportIn))
		}
	}
}

func TestReplacementLatencyOrdered(t *testing.T) {
	for _, levels := range []int{2, 3, 4, 5} {
		g := MustGeometry(levels)
		for i := range g.Sites {
			s := g.Sites[i]
			for _, o := range s.ReplaceOut {
				if g.Sites[o].Latency != s.Latency+1 {
					t.Fatalf("replacement link %v(lat %d) -> %v(lat %d) breaks +1 rule",
						s.Pos, s.Latency, g.Sites[o].Pos, g.Sites[o].Latency)
				}
			}
			if !s.ExitsToNextLevel && len(s.ReplaceOut) == 0 {
				t.Fatalf("site %v (lat %d) has no replacement output and no exit",
					s.Pos, s.Latency)
			}
			if len(s.ReplaceIn) == 0 {
				t.Fatalf("site %v unreachable by replacement network", s.Pos)
			}
		}
	}
}

func TestOnlyUpperCornersExit(t *testing.T) {
	g := MustGeometry(3)
	var exits []noc.Coord
	for i := range g.Sites {
		if g.Sites[i].ExitsToNextLevel {
			exits = append(exits, g.Sites[i].Pos)
		}
	}
	if len(exits) != 2 {
		t.Fatalf("exit tiles = %v, want exactly the 2 upper corners", exits)
	}
	for _, p := range exits {
		if abs(p.X) != 2 || p.Y != 2 {
			t.Errorf("exit tile at %v is not an outermost upper corner", p)
		}
	}
}

func TestReplacementDepthGrowsByThree(t *testing.T) {
	// Section III.A: "when a level is added the distance from the r-tile
	// to the upper corner tiles ... increases by 3 hops".
	prev := 0
	for _, levels := range []int{2, 3, 4, 5} {
		g := MustGeometry(levels)
		d := g.ReplacementDepth()
		if levels > 2 && d != prev+3 {
			t.Errorf("ReplacementDepth(%d levels) = %d, want %d", levels, d, prev+3)
		}
		prev = d
	}
	// Anchor: 2 levels -> 1 + (4-3) = 2 hops (r-tile -> lat3 -> lat4).
	if got := MustGeometry(2).ReplacementDepth(); got != 2 {
		t.Errorf("ReplacementDepth(2) = %d, want 2", got)
	}
}

func TestRTileReplacementFanout(t *testing.T) {
	g := MustGeometry(3)
	if len(g.RTileReplaceOut) != 3 {
		t.Fatalf("r-tile evicts into %d tiles, want the 3 latency-3 tiles",
			len(g.RTileReplaceOut))
	}
	for _, id := range g.RTileReplaceOut {
		if g.Sites[id].Latency != 3 {
			t.Errorf("r-tile victim target %v has latency %d, want 3",
				g.Sites[id].Pos, g.Sites[id].Latency)
		}
	}
}

func TestUBufferComparatorBound(t *testing.T) {
	// Section III.C: up to 4 U-buffer address comparators per tile, i.e.
	// at most 2 inbound replacement links x 2 entries.
	for _, levels := range []int{2, 3, 4, 5, 6} {
		g := MustGeometry(levels)
		for i := range g.Sites {
			if n := len(g.Sites[i].ReplaceIn); n > 2 {
				t.Errorf("levels=%d: site %v has %d replacement inputs, want <= 2",
					levels, g.Sites[i].Pos, n)
			}
		}
	}
}

func TestSitesAtLevel(t *testing.T) {
	g := MustGeometry(4)
	if n := len(g.SitesAtLevel(2)); n != 5 {
		t.Errorf("level 2 has %d sites, want 5", n)
	}
	if n := len(g.SitesAtLevel(4)); n != 13 {
		t.Errorf("level 4 has %d sites, want 13", n)
	}
	if n := len(g.SitesAtLevel(9)); n != 0 {
		t.Errorf("level 9 has %d sites, want 0", n)
	}
}

func TestLinkCountsReasonable(t *testing.T) {
	g := MustGeometry(3)
	// Mesh transport: every tile has 1-2 inward links; the broadcast tree
	// uses exactly one per tile; replacement is sparse.
	if g.TransportLinks() <= g.SearchLinks() {
		t.Error("the transport mesh should have more links than the search tree")
	}
	// A full bidirectional 2D mesh of the same 15 nodes (incl. r-tile, 4
	// rows x 5 cols arrangement) would have far more unidirectional
	// links; the specialized networks must stay below that.
	full := noc.MeshConfig{Width: 5, Height: 3, VCs: 1, VCDepth: 1}
	fullLinks := noc.NewMesh[struct{}](full).NumLinks()
	total := g.SearchLinks() + g.TransportLinks() + g.ReplacementLinks()
	if total > 2*fullLinks {
		t.Errorf("specialized networks use %d links vs %d for a mesh; too many", total, fullLinks)
	}
}
