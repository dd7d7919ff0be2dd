// Quickstart: declare one run as a lightnuca.Request, execute it with
// the in-process Local runner, and print the headline statistics. The
// same Request, unchanged, could be submitted to a lnucad service via
// lightnuca.NewClient(addr).Run — identical content key, shared cache.
package main

import (
	"context"
	"fmt"
	"log"

	lightnuca "repro"
)

func main() {
	runner := &lightnuca.Local{}
	res, err := runner.Run(context.Background(), lightnuca.Request{
		Hierarchy: "ln+l3",
		Benchmark: "482.sphinx3",
		Levels:    3,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s running %s (key %.12s...)\n", res.Config, res.Benchmark, res.Key)
	fmt.Printf("  IPC:               %.3f over %d cycles\n", res.IPC, res.Cycles)
	fmt.Printf("  r-tile read hits:  %d (misses %d)\n",
		res.Stats.Counter("ln.rt_read_hits"), res.Stats.Counter("ln.rt_read_misses"))
	fmt.Printf("  tile hits Le2/Le3: %d / %d\n",
		res.Stats.Counter("ln.hits_le2"), res.Stats.Counter("ln.hits_le3"))
	fmt.Printf("  global misses:     %d (to the L3)\n", res.Stats.Counter("ln.global_misses"))
	fmt.Printf("  transport ratio:   %.4f (1.0 = never contended)\n",
		res.Stats.Ratio("ln.transport_actual_cycles", "ln.transport_min_cycles"))
	fmt.Printf("  energy:            %s\n", res.Energy)

	fmt.Println()
	topo, err := lightnuca.Topology(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(topo)
}
