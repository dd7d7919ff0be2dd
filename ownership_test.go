package lightnuca_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	lightnuca "repro"
	"repro/internal/orchestrator"
)

// content renders what a Result holds by reference.
func content(t *testing.T, r lightnuca.Result) []byte {
	t.Helper()
	b, err := json.Marshal([]interface{}{r.Stats, r.PerCore})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scribble changes everything a Result holds by reference.
func scribble(r lightnuca.Result) {
	r.Stats.Add("core.committed", 1_000_000)
	r.Stats.Add("scribbled", 1)
	for i := range r.PerCore {
		r.PerCore[i].IPC = -1
	}
	if r.Phases != nil {
		r.Phases.MIPS = -1
	}
}

// TestLocalRunCopies: Local.Run's result is read off a live cache entry —
// one that, over a store directory, also holds the bytes every service hit
// sends — so the caller gets copies: scribbling on a Result, fresh or
// cached, changes neither the next Run of the key nor what the store and a
// service over it answer.
func TestLocalRunCopies(t *testing.T) {
	dir := t.TempDir()
	local := &lightnuca.Local{CacheDir: dir}
	ctx := context.Background()
	for _, req := range []lightnuca.Request{
		{Hierarchy: "ln+l3", Benchmark: "456.hmmer", Warmup: 500, Measure: 2000, Seed: 1},
		{Hierarchy: "conventional", Cores: 2, Mix: "403.gcc,470.lbm", Warmup: 500, Measure: 2000, Seed: 1},
	} {
		fresh, err := local.Run(ctx, req)
		if err != nil || fresh.Cached || fresh.Phases == nil {
			t.Fatalf("first run: cached=%v phases=%v err=%v", fresh.Cached, fresh.Phases, err)
		}
		want := content(t, fresh)
		file, err := os.ReadFile(filepath.Join(dir, fresh.Key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		scribble(fresh)
		for i := 0; i < 2; i++ {
			hit, err := local.Run(ctx, req)
			if err != nil || !hit.Cached || hit.Phases != nil {
				t.Fatalf("run %d: cached=%v phases=%v err=%v", i+2, hit.Cached, hit.Phases, err)
			}
			if got := content(t, hit); !bytes.Equal(got, want) {
				t.Fatalf("run %d was served what an earlier caller scribbled:\n got %s\nwant %s", i+2, got, want)
			}
			scribble(hit)
		}

		// The same entry, as a service over the store sends it.
		ts, _ := stubServer(t, orchestrator.Config{Workers: 1, Cache: orchestrator.NewCache(0, dir)})
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Cached bool
			Result json.RawMessage
		}
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if now, _ := os.ReadFile(filepath.Join(dir, fresh.Key+".json")); err != nil || !rec.Cached || !bytes.Equal(rec.Result, file) || !bytes.Equal(now, file) {
			t.Errorf("service answer (cached=%v, err=%v) or store file differs from the %d bytes first stored", rec.Cached, err, len(file))
		}
	}
}

// TestClientRunOwnsResult: a Client's Result is built from the record that
// call decoded and nothing else refers to, so it is handed over, not
// copied — and is still the caller's alone: two Runs and a Lookup of one
// key are equal and share nothing.
func TestClientRunOwnsResult(t *testing.T) {
	ts, _ := stubServer(t, orchestrator.Config{Workers: 1, Cache: orchestrator.NewCache(0, t.TempDir())})
	client := lightnuca.NewClient(ts.URL)
	ctx := context.Background()
	for _, req := range []lightnuca.Request{
		{Hierarchy: "ln+l3", Benchmark: "456.hmmer", Warmup: 500, Measure: 2000, Seed: 1},
		{Hierarchy: "conventional", Cores: 2, Mix: "403.gcc,470.lbm", Warmup: 500, Measure: 2000, Seed: 1},
	} {
		fresh, err := client.Run(ctx, req)
		if err != nil || fresh.Cached || fresh.Phases == nil || fresh.Stats.Counter("core.committed")+fresh.Stats.Counter("c0.core.committed") == 0 {
			t.Fatalf("first run: cached=%v phases=%v err=%v", fresh.Cached, fresh.Phases, err)
		}
		a, err := client.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := client.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		looked, ok, err := client.Lookup(ctx, req)
		if err != nil || !ok {
			t.Fatalf("lookup: ok=%v err=%v", ok, err)
		}
		if !a.Cached || a.Phases != nil || !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, looked) {
			t.Fatalf("two cached runs and a lookup of one key differ:\n%+v\n%+v\n%+v", a, b, looked)
		}
		fresh.Cached, fresh.Phases = true, nil
		if !reflect.DeepEqual(a, fresh) {
			t.Fatalf("a cached run differs from the fresh one beyond Cached and Phases:\n%+v\n%+v", a, fresh)
		}
		scribble(a)
		scribble(looked)
		if c, err := client.Run(ctx, req); err != nil || !reflect.DeepEqual(b, c) || reflect.DeepEqual(a, b) {
			t.Errorf("scribbling on one Result reached another (err=%v)", err)
		}
	}
}
