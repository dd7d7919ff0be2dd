package orchestrator

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
)

// BenchmarkSubmitWarmCache measures the service's steady-state submit
// path: every job answered from the content-addressed cache, the case a
// deployed lnucad should spend most of its time in.
func BenchmarkSubmitWarmCache(b *testing.B) {
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		return &JobResult{Config: j.Hierarchy, Benchmark: j.Benchmark, IPC: 1}, nil
	}})
	defer o.Close()
	job := Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1}
	rec, err := o.Submit(job)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the cache: wait for the one real execution.
	for {
		r, _ := o.Get(rec.ID)
		if r.Status.Terminal() {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := o.Submit(job)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Cached {
			b.Fatal("warm submit missed the cache")
		}
	}
	b.ReportMetric(o.Cache().HitRate()*100, "hit_%")
}

// BenchmarkStatsSetJSONRoundTrip measures serializing and restoring a
// real run's statistics set, the payload every /v1/jobs poll carries.
func BenchmarkStatsSetJSONRoundTrip(b *testing.B) {
	res, err := NewEngine(NewCache(0, ""), nil).Run(context.Background(), Job{
		Kind: hier.Conventional, Benchmark: "403.gcc",
		Mode: exp.Mode{Name: "bench", Warmup: 500, Measure: 3000}, Seed: 1,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(res)
		if err != nil {
			b.Fatal(err)
		}
		var back JobResult
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}
