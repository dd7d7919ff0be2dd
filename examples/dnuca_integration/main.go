// dnuca_integration reproduces the Fig. 5 scenario: the DN-4x8 D-NUCA
// baseline against the same D-NUCA with a small L-NUCA in front,
// demonstrating that the two organizations compose (Section V.B).
package main

import (
	"context"
	"fmt"
	"log"

	lightnuca "repro"
)

var benchmarks = []string{"403.gcc", "434.zeusmp", "482.sphinx3"}

func main() {
	ctx := context.Background()
	var runner lightnuca.Runner = &lightnuca.Local{}
	for _, b := range benchmarks {
		base, err := runner.Run(ctx, lightnuca.Request{Hierarchy: "dn-4x8", Benchmark: b, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		front, err := runner.Run(ctx, lightnuca.Request{Hierarchy: "ln+dn-4x8", Levels: 2, Benchmark: b, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", b)
		fmt.Printf("  DN-4x8:      IPC %.3f, D-NUCA bank accesses %d, net flit-hops %d\n",
			base.IPC, base.Stats.Counter("dn.bank_accesses"), base.Stats.Counter("dn.net_flit_hops"))
		fmt.Printf("  LN2+DN-4x8:  IPC %.3f (%+.1f%%), D-NUCA bank accesses %d (filtered by the L-NUCA), net flit-hops %d\n",
			front.IPC, 100*(front.IPC-base.IPC)/base.IPC,
			front.Stats.Counter("dn.bank_accesses"), front.Stats.Counter("dn.net_flit_hops"))
		fmt.Printf("  L-NUCA absorbed: Le2 hits %d, global misses passed on %d\n",
			front.Stats.Counter("ln.hits_le2"), front.Stats.Counter("ln.global_misses"))
		fmt.Printf("  energy: DN %.3g pJ -> LN2+DN %.3g pJ (%+.1f%% saving)\n\n",
			base.Energy.Total(), front.Energy.Total(),
			front.Energy.SavingsPercentVs(base.Energy))
	}
	fmt.Println("paper (suite means): LN2+DN-4x8 gains 4.2% int / 6.8% fp IPC and saves 4.25% energy;")
	fmt.Println("the added L-NUCA activity costs less than the D-NUCA bank+VC-router activity it removes.")
}
