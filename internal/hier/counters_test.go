package hier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/workload"
)

// counterExempt names the exported counters System.Collect leaves out,
// each with the production code that reads it instead.
var counterExempt = map[string]string{
	"Mesh.MsgsInjected":   "Mesh.Quiet and Mesh.InFlight set it against MsgsDelivered",
	"Arbiter.RespOrphans": "System.CheckInvariants fails a machine that dropped a response",
}

// TestEveryCounterReachesTheResult: the component owns the count, and
// the result reads it. On each Fig. 1 kind and a 4-core machine, after a
// short run, adding 1 to any exported uint64 counter of the core, the
// controllers, the fabric's Counters, the D-NUCA, its mesh, the memory
// or the arbiter — for a slice, its last element — must change
// System.Collect(), or the counter must be named in counterExempt with
// the code that reads it, and then must not change it. A counter that
// nothing reads is to be deleted, not kept.
func TestEveryCounterReachesTheResult(t *testing.T) {
	prof, ok := workload.ByName("429.mcf")
	if !ok {
		t.Fatal("429.mcf is not in the catalog")
	}
	var systems []*System
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		s, err := Build(kind, prof, Options{Seed: 1, MaxInstr: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		s.Prewarm()
		s.Run(1_000_000)
		systems = append(systems, s)
	}
	systems = append(systems, runCMP(t, LNUCADNUCA,
		mixProfiles(t, "403.gcc", "429.mcf", "470.lbm", "482.sphinx3"), CMPOptions{Seed: 1}, 5_000))

	seen := map[string]bool{}
	for _, s := range systems {
		name := fmt.Sprintf("%s/%d cores", s.Kind, len(s.Cores))
		base := collectJSON(t, s)
		for _, c := range counterOwners(s) {
			v := reflect.ValueOf(c.ptr).Elem()
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				p := counterAt(f, v.Field(i))
				if p == nil {
					continue
				}
				field := c.label + "." + f.Name
				seen[field] = true
				*p++
				moved := !bytes.Equal(collectJSON(t, s), base)
				*p--
				switch why, exempt := counterExempt[field]; {
				case exempt && moved:
					t.Errorf("%s: %s is in the result, yet exempt (%s)", name, field, why)
				case !exempt && !moved:
					t.Errorf("%s: %s never reaches System.Collect: read it there, delete it, or name the code that reads it in counterExempt",
						name, field)
				}
			}
		}
		if s.Arb != nil {
			s.Arb.RespOrphans++
			if s.CheckInvariants() == nil {
				t.Errorf("%s: CheckInvariants passes a machine whose arbiter dropped a response", name)
			}
			s.Arb.RespOrphans--
		}
		s.Close()
	}
	for field := range counterExempt {
		if !seen[field] {
			t.Errorf("exempt counter %s is on no component", field)
		}
	}
}

// counterOwner is a component struct whose exported counters the test
// bumps, and the name it reports them under.
type counterOwner struct {
	label string
	ptr   any
}

// counterOwners lists every counter-holding struct of s.
func counterOwners(s *System) []counterOwner {
	var out []counterOwner
	for _, c := range s.Cores {
		out = append(out, counterOwner{"Core", c})
	}
	for _, l := range [][]*cache.Controller{s.L1s, s.L2s, {s.L3}} {
		for _, c := range l {
			if c != nil {
				out = append(out, counterOwner{"Controller", c})
			}
		}
	}
	for _, f := range s.Fabrics {
		out = append(out, counterOwner{"Fabric.C", &f.C})
	}
	if s.DN != nil {
		out = append(out, counterOwner{"DNUCA", s.DN}, counterOwner{"Mesh", s.DN.Mesh()})
	}
	if s.Arb != nil {
		out = append(out, counterOwner{"Arbiter", s.Arb})
	}
	return append(out, counterOwner{"MainMemory", s.Memory})
}

// counterAt returns the counter an exported field holds: the field
// itself if it is a uint64, the last element if it is a []uint64, nil
// otherwise.
func counterAt(f reflect.StructField, v reflect.Value) *uint64 {
	switch {
	case !f.IsExported():
		return nil
	case v.Kind() == reflect.Uint64:
		return v.Addr().Interface().(*uint64)
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint64 && v.Len() > 0:
		return v.Index(v.Len() - 1).Addr().Interface().(*uint64)
	}
	return nil
}

func collectJSON(t *testing.T, s *System) []byte {
	t.Helper()
	b, err := json.Marshal(s.Collect())
	if err != nil {
		t.Fatal(err)
	}
	return b
}
