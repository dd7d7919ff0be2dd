package workload

import (
	"reflect"
	"strings"
	"testing"
)

func TestResolveNamedMixes(t *testing.T) {
	for _, name := range MixNames() {
		for _, cores := range []int{2, 4, 8} {
			got, err := ResolveMix(name, cores, 1)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, cores, err)
			}
			if len(got) != cores {
				t.Fatalf("%s/%d: %d entries", name, cores, len(got))
			}
			for _, b := range got {
				if _, ok := ByName(b); !ok {
					t.Fatalf("%s/%d: unknown benchmark %q", name, cores, b)
				}
			}
			// Named mixes ignore the seed entirely.
			again, _ := ResolveMix(name, cores, 999)
			if !reflect.DeepEqual(got, again) {
				t.Fatalf("%s/%d: seed-dependent named mix", name, cores)
			}
		}
	}
}

func TestResolveMixedAlternatesClasses(t *testing.T) {
	got, err := ResolveMix("mixed", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		p, _ := ByName(b)
		want := Int
		if i%2 == 1 {
			want = FP
		}
		if p.Class != want {
			t.Fatalf("mixed[%d] = %s (class %v), want class %v", i, b, p.Class, want)
		}
	}
}

func TestResolveRandomMix(t *testing.T) {
	a, err := ResolveMix(RandomMixName, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ResolveMix(RandomMixName, 8, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("random mix not a pure function of the seed: %v vs %v", a, b)
	}
	c, _ := ResolveMix(RandomMixName, 8, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("random mix ignores the seed: %v", a)
	}
	// Draws are without replacement while the catalog lasts.
	seen := map[string]bool{}
	for _, n := range a {
		if seen[n] {
			t.Fatalf("random mix repeated %q before exhausting the catalog: %v", n, a)
		}
		seen[n] = true
	}
}

func TestResolveExplicitMix(t *testing.T) {
	got, err := ResolveMix("403.gcc, 429.mcf", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"403.gcc", "429.mcf"}) {
		t.Fatalf("explicit mix = %v", got)
	}
	// Repetition within an explicit list is allowed.
	if _, err := ResolveMix("403.gcc,403.gcc", 2, 1); err != nil {
		t.Fatalf("repeated explicit mix rejected: %v", err)
	}
	// A single benchmark name works for one core.
	if _, err := ResolveMix("403.gcc", 1, 1); err != nil {
		t.Fatalf("single-entry mix rejected: %v", err)
	}
	if _, err := ResolveMix("403.gcc,429.mcf,470.lbm", 2, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ResolveMix("403.gcc,not-a-benchmark", 2, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := ResolveMix("definitely-not-a-mix", 2, 1); err == nil {
		t.Fatal("unknown mix name accepted")
	}
}

// TestGeneratorAddressSpaceOffset: a CMP core's generator must never
// produce addresses outside its own 4GB window, and the stream must be
// the same stream merely shifted.
func TestGeneratorAddressSpaceOffset(t *testing.T) {
	p, _ := ByName("429.mcf")
	const base = 3 << 32
	g0 := MustGenerator(p, 7)
	g1, err := NewGeneratorAt(p, 7, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		op0, _ := g0.Next()
		op1, _ := g1.Next()
		if op0.Class != op1.Class || op0.Taken != op1.Taken {
			t.Fatalf("op %d: streams diverge", i)
		}
		if op0.Addr == 0 && op1.Addr == 0 {
			continue // non-memory op
		}
		if op1.Addr != op0.Addr+base {
			t.Fatalf("op %d: addr %#x, want %#x", i, op1.Addr, op0.Addr+base)
		}
		if op1.Addr < base || op1.Addr >= base+(1<<32) {
			t.Fatalf("op %d: addr %#x escapes the 4GB window at %#x", i, op1.Addr, base)
		}
	}
}

func TestMixNamesAreStable(t *testing.T) {
	want := []string{"compute", "fp", "int", "memory", "mixed"}
	if got := MixNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MixNames = %v, want %v", got, want)
	}
	for _, n := range want {
		if strings.Contains(n, ",") {
			t.Fatalf("mix name %q would be ambiguous with explicit lists", n)
		}
	}
}
