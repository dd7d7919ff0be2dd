package orchestrator

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/trace"
)

// TestFrozenSchemas pins what a stored result, a journal line, a lease
// and every front-end agree on: the run schema (Request, SweepRequest,
// lnuca-run-v1), the key schema (Job, JobResult, KeySchema) and the trace
// format's version. A change to any line here is a schema change: bump
// RequestSchema or KeySchema, and edit this test in the same change.
func TestFrozenSchemas(t *testing.T) {
	// Field lines: name, Go type and json tag of every field encoding/json
	// sees, in declaration order.
	for _, c := range []struct {
		v     any
		lines []string
	}{
		{Request{}, []string{
			`Schema string json:"schema,omitempty"`,
			`Hierarchy string json:"hierarchy"`,
			`Levels int json:"levels,omitempty"`,
			`Machine map[string]float64 json:"machine,omitempty"`,
			`Benchmark string json:"benchmark,omitempty"`,
			`Cores int json:"cores,omitempty"`,
			`Mix string json:"mix,omitempty"`,
			`Trace string json:"trace,omitempty"`,
			`Mode string json:"mode,omitempty"`,
			`Warmup uint64 json:"warmup,omitempty"`,
			`Measure uint64 json:"measure,omitempty"`,
			`Seed uint64 json:"seed,omitempty"`,
			`Priority int json:"priority,omitempty"`,
		}},
		{SweepRequest{}, []string{
			`Schema string json:"schema,omitempty"`,
			`Hierarchies []string json:"hierarchies"`,
			`Levels []int json:"levels,omitempty"`,
			`Benchmarks []string json:"benchmarks,omitempty"`,
			`Mode string json:"mode,omitempty"`,
			`Warmup uint64 json:"warmup,omitempty"`,
			`Measure uint64 json:"measure,omitempty"`,
			`Seed uint64 json:"seed,omitempty"`,
			`Priority int json:"priority,omitempty"`,
		}},
		{Job{}, []string{
			`Kind hier.Kind json:"-"`,
			`Hierarchy string json:"hierarchy"`,
			`Levels int json:"levels,omitempty"`,
			`Benchmark string json:"benchmark,omitempty"`,
			`Cores int json:"cores,omitempty"`,
			`Mix string json:"mix,omitempty"`,
			`MixBenchmarks []string json:"mix_benchmarks,omitempty"`,
			`Trace string json:"trace,omitempty"`,
			`Mode exp.Mode json:"mode"`,
			`Seed uint64 json:"seed"`,
			`Priority int json:"priority,omitempty"`,
		}},
		{JobResult{}, []string{
			`Config string json:"config"`,
			`Benchmark string json:"benchmark,omitempty"`,
			`IPC float64 json:"ipc,omitempty"`,
			`Cycles uint64 json:"cycles"`,
			`EnergyPJ [4]float64 json:"energy_pj"`,
			`Cores int json:"cores,omitempty"`,
			`PerCore []exp.CoreResult json:"per_core,omitempty"`,
			`ThroughputIPC float64 json:"throughput_ipc,omitempty"`,
			`WeightedSpeedup float64 json:"weighted_speedup,omitempty"`,
			`Stats *stats.Set json:"stats,omitempty"`,
			`Phases *exp.Phases json:"phases,omitempty"`,
		}},
	} {
		typ := reflect.TypeOf(c.v)
		if got := fieldLines(typ); !slices.Equal(got, c.lines) {
			t.Errorf("%s fields moved:\n got %q\nwant %q", typ.Name(), got, c.lines)
		}
	}

	for _, c := range []struct{ name, got, want string }{
		{"RequestSchema", RequestSchema, "lnuca-run-v1"},
		{"KeySchema", KeySchema, "lnuca-job-v6"},
		{"trace.Schema", trace.Schema, "lnuca-trace-v1"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %q, pinned %q", c.name, c.got, c.want)
		}
	}

	// Every Job field moves the key, except those named here, which must
	// leave it alone.
	exempt := map[string]string{
		"Priority":  "scheduling only",
		"Hierarchy": "the label Normalize derives from Kind and Levels",
		"Mix":       "the spec Normalize resolves into MixBenchmarks",
	}
	base, err := Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		j := base
		f := reflect.ValueOf(&j).Elem().Field(i)
		perturb(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		name := typ.Field(i).Name
		switch why, ok := exempt[name]; {
		case ok && j.Key() != base.Key():
			t.Errorf("Job.%s (%s) moves the key", name, why)
		case !ok && j.Key() == base.Key():
			t.Errorf("Job.%s leaves the key alone: key it, or name it exempt", name)
		}
	}
}

// fieldLines renders a struct's serialized shape, one line per field
// encoding/json sees: "Name Type json:\"tag\"".
func fieldLines(t reflect.Type) []string {
	var lines []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() && !f.Anonymous {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s %s json:%q", f.Name, f.Type, f.Tag.Get("json")))
	}
	return lines
}

// perturb changes every leaf of v to another value of its type.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Slice:
		e := reflect.New(v.Type().Elem()).Elem()
		perturb(t, e)
		v.Set(reflect.Append(v, e))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, v.Field(i))
		}
	default:
		t.Fatalf("no perturbation for a %s field: add one", v.Type())
	}
}
