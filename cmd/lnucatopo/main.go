// Command lnucatopo prints the L-NUCA structures of Figures 1-3: the
// network topologies (ASCII latency grid and Graphviz DOT), the hierarchy
// organizations, and the single-cycle tile timing analysis.
//
// Examples:
//
//	lnucatopo -levels 3
//	lnucatopo -levels 4 -net replacement -dot
//	lnucatopo -timing
//	lnucatopo -hier
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hier"
	"repro/internal/lnuca"
	"repro/internal/timing"
)

func main() {
	var (
		levels  = flag.Int("levels", 3, "L-NUCA levels (2..6)")
		netFlag = flag.String("net", "", "render one network as edges: search|transport|replacement")
		dotFlag = flag.Bool("dot", false, "emit Graphviz DOT instead of text")
		timingF = flag.Bool("timing", false, "print the Fig. 3(d) tile timing analysis")
		hierF   = flag.Bool("hier", false, "print the Fig. 1 hierarchy organizations")
	)
	flag.Parse()

	if *timingF {
		printTiming()
		return
	}
	if *hierF {
		printHierarchies()
		return
	}

	g, err := lnuca.NewGeometry(*levels)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lnucatopo:", err)
		os.Exit(1)
	}
	if *netFlag != "" {
		n, ok := lnuca.NetworkByName(*netFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "lnucatopo: unknown network %q\n", *netFlag)
			os.Exit(1)
		}
		if *dotFlag {
			fmt.Print(g.RenderDOT(n))
			return
		}
		fmt.Printf("%s network of a %d-level L-NUCA (see -dot for Graphviz)\n", *netFlag, *levels)
		fmt.Print(g.RenderSummary())
		return
	}
	fmt.Print(g.RenderSummary())
	fmt.Println()
	fmt.Print(g.RenderLatencyGrid())
}

func printTiming() {
	fmt.Println("Fig. 3(d): cache access + one-hop routing in a single 19 FO4 cycle")
	fmt.Println()
	tile := hier.DefaultTableI().TileSRAM()
	for _, size := range []int{tile.SizeBytes / 2, tile.SizeBytes, 2 * tile.SizeBytes} {
		c := tile
		c.SizeBytes = size
		fmt.Print(timing.Analyze(c))
		fmt.Println()
	}
	best := timing.LargestOneCycleTile(tile)
	fmt.Printf("largest one-cycle tile found: %dKB %d-way %dB (paper: 8KB-2Way-32B)\n",
		best.SizeBytes/1024, best.Ways, best.BlockBytes)
}

func printHierarchies() {
	t := hier.DefaultTableI()
	dn, m := t.DNUCA, t.Memory
	fmt.Printf(`Fig. 1: the four evaluated cache hierarchies

(a) Conventional             (b) L-NUCA + L3
    L1 %[1]dKB                      L-NUCA (r-tile %[1]dKB + %[2]dKB tiles)
    L2 %[3]dKB                       %[4]dKB / %[5]dKB / %[6]dKB for 2/3/4 levels
    L3 %[7]dMB                       L3 %[7]dMB

(c) D-NUCA                   (d) L-NUCA + D-NUCA
    L1 %[1]dKB                      L-NUCA (as above)
    D-NUCA %[8]dMB (%[9]dx%[10]d banks)       D-NUCA %[8]dMB (%[9]dx%[10]d banks)

All backed by main memory: %[11]d-cycle first chunk + %[12]d cycles per %[13]dB chunk.
`, t.L1.Bank.SizeBytes>>10, t.LNUCA.TileBank.SizeBytes>>10, t.L2.Bank.SizeBytes>>10,
		lnuca.CapacityKB(2), lnuca.CapacityKB(3), lnuca.CapacityKB(4), t.L3.Bank.SizeBytes>>20,
		dn.Rows*dn.Cols*dn.Bank.SizeBytes>>20, dn.Rows, dn.Cols, m.FirstChunkCycles, m.InterChunkCycles, m.ChunkBytes)
}
