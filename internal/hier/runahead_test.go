package hier

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// TestRunAheadMatchesGenerator: the run-ahead supply a core reads is the
// generator's own stream, op for op — for several profiles, in several
// cores' address spaces, unbounded, capped, and with a budget larger
// than the memo holds (a ring, as unbounded). 48 Ki ops cross five
// 8 Ki-op block boundaries; the capped supply holds 4 blocks (a 24 Ki-op
// budget plus slack, rounded up), so the last two blocks are the
// reader's own, read from the generator after the handoff.
//
// A capped stream is generated once: a second supply of its key reads
// the first one's blocks (a memo hit), and a third, opened after both
// closed and after a ring has taken blocks from the pool and filled
// them, still reads the generator's ops — no shared block was pooled or
// written. A budget of another block count is another stream.
func TestRunAheadMatchesGenerator(t *testing.T) {
	const ops = 6 * 8192
	for _, bench := range []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"} {
		prof, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("no profile %s", bench)
		}
		for core := 0; core < 4; core += 3 {
			for _, maxInstr := range []uint64{0, 3 * 8192, 1 << 22} {
				seed := coreSeed(freshSeed(), core)
				key := streamKey{prof, seed, CoreOffset(core)}
				name := fmt.Sprintf("%s, core %d, budget %d", bench, core, maxInstr)
				first := supply(t, key, maxInstr, false)
				readsGenerator(t, first, key, ops, name+", first supply")
				if maxInstr != 3*8192 {
					first.Close()
					continue
				}
				second := supply(t, key, maxInstr, true)
				readsGenerator(t, second, key, ops, name+", second supply")
				first.Close()
				second.Close()

				other, _ := workload.ByName("470.lbm")
				ring := supply(t, streamKey{other, seed, 0}, 0, false)
				for i := 0; i < 4*8192; i++ {
					ring.Next()
				}
				third := supply(t, key, maxInstr, true)
				readsGenerator(t, third, key, ops, name+", third supply")
				third.Close()
				ring.Close()

				longer := supply(t, key, maxInstr+8192, false)
				readsGenerator(t, longer, key, ops, name+", a block more budget")
				longer.Close()
			}
		}
	}
}

// seeds hands out run seeds that no other test in the process uses, so
// a test's first supply of a key misses the memo however often it runs.
var seeds atomic.Uint64

func freshSeed() uint64 { return 1<<48 + seeds.Add(1) }

// supply starts key's run-ahead supply over a fresh generator and fails
// t unless it was a memo hit exactly when hit is set.
func supply(t *testing.T, key streamKey, maxInstr uint64, hit bool) *cpu.Ahead {
	t.Helper()
	gen, err := workload.NewGeneratorAt(key.prof, key.seed, key.base)
	if err != nil {
		t.Fatal(err)
	}
	before := cpu.ReadMemo().Hits
	a := cpu.RunAhead(gen, maxInstr, key)
	if got := cpu.ReadMemo().Hits > before; got != hit {
		t.Fatalf("%s seed %d, budget %d: memo hit %v, want %v", key.prof.Name, key.seed, maxInstr, got, hit)
	}
	return a
}

// readsGenerator fails t unless a's next ops are key's generator's first
// ops.
func readsGenerator(t *testing.T, a *cpu.Ahead, key streamKey, ops int, name string) {
	t.Helper()
	want, err := workload.NewGeneratorAt(key.prof, key.seed, key.base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		w, _ := want.Next()
		if g, _ := a.Next(); g != w {
			t.Fatalf("%s: op %d is %+v, want %+v", name, i, g, w)
		}
	}
}

// TestClosedMidStreamPublishesNothing: a system closed before its core's
// producer has filled the budget — exp.measure's deferred Close after a
// cancel or an error — leaves no memo entry, so the next build of the
// same stream generates it again, and reads the generator's ops.
func TestClosedMidStreamPublishesNothing(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	opt := Options{Seed: freshSeed(), MaxInstr: 15 * 8192} // 16 blocks: 5 may be ahead of the first
	key := streamKey{prof, coreSeed(opt.Seed, 0), CoreOffset(0)}
	before := cpu.ReadMemo()
	s, err := Build(Conventional, prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	s.Prewarm()
	s.Run(1000)
	s.Close()
	after := cpu.ReadMemo()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Fatalf("the build took %d misses and %d hits, want 1 and 0", after.Misses-before.Misses, after.Hits-before.Hits)
	}
	again := supply(t, key, opt.MaxInstr, false)
	readsGenerator(t, again, key, 17*8192, "after a closed build")
	again.Close()
}

// TestConcurrentSystemsShareStreams: two systems of one stream run at
// once, first as two misses that both generate it, then as two hits on
// what one of them published, and all four end alike. Under go test
// -race this is the check that readers only read shared blocks. The
// budget is 6 blocks, more than a producer fills ahead of a reader that
// has not started, so the first system's stream cannot be published
// before the second system is built.
func TestConcurrentSystemsShareStreams(t *testing.T) {
	prof, _ := workload.ByName("429.mcf")
	opt := Options{Seed: freshSeed(), MaxInstr: 48_000}
	var results []string
	for _, wantHits := range []uint64{0, 2} {
		before := cpu.ReadMemo().Hits
		var systems [2]*System
		for i := range systems {
			s, err := Build(LNUCAL3, prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			systems[i] = s
		}
		if hits := cpu.ReadMemo().Hits - before; hits != wantHits {
			t.Fatalf("%d memo hits building two systems, want %d", hits, wantHits)
		}
		var wg sync.WaitGroup
		sets := make([]string, len(systems))
		for i, s := range systems {
			wg.Add(1)
			go func(i int, s *System) {
				defer wg.Done()
				defer s.Close()
				s.Prewarm()
				s.Run(1 << 40)
				if c := s.MinCommitted(); c < opt.MaxInstr {
					t.Errorf("a run stopped at %d committed, budget %d", c, opt.MaxInstr)
				}
				sets[i] = s.Collect().String()
			}(i, s)
		}
		wg.Wait()
		results = append(results, sets...)
	}
	for i, r := range results[1:] {
		if r != results[0] {
			t.Fatalf("run %d of one stream ended otherwise than run 0:\n%s\nwant\n%s", i+1, r, results[0])
		}
	}
}

// TestRunAheadMemoEvictsLeastRecentlyUsed: the memo holds at most
// 64 MiB of finished streams, here four of 16 MiB. A fifth evicts the
// least recently used, not the first published; a supply reading an
// entry that is evicted under it reads the generator's ops to the end
// of the entry and past it.
func TestRunAheadMemoEvictsLeastRecentlyUsed(t *testing.T) {
	const (
		capBytes = 64 << 20
		blocks   = 64 // 16 MiB of 32-byte ops
		maxInstr = blocks*8192 - 256
	)
	prof, _ := workload.ByName("401.bzip2")
	keys := make([]streamKey, 9)
	for i := range keys {
		keys[i] = streamKey{prof, freshSeed(), 0}
	}
	publish := func(k streamKey) {
		a := supply(t, k, maxInstr, false)
		for i := 0; i <= blocks*8192; i++ { // one op past the end: the producer has published
			a.Next()
		}
		a.Close()
		if m := cpu.ReadMemo(); m.Bytes > capBytes {
			t.Fatalf("the memo holds %d bytes in %d entries, cap %d", m.Bytes, m.Entries, capBytes)
		}
	}
	for _, k := range keys[:4] {
		publish(k)
	}
	reader := supply(t, keys[0], maxInstr, true) // keys[0] is now the most recently used
	want, _ := workload.NewGeneratorAt(prof, keys[0].seed, 0)
	const half = blocks * 8192 / 2
	for i := 0; i < half; i++ {
		w, _ := want.Next()
		if g, _ := reader.Next(); g != w {
			t.Fatalf("op %d of a memo hit is %+v, want %+v", i, g, w)
		}
	}
	publish(keys[4])
	supply(t, keys[1], maxInstr, false).Close() // the least recently used went
	for _, k := range keys[5:] {
		publish(k) // evicts keys[2], keys[3], then keys[0] under the reader
	}
	supply(t, keys[0], maxInstr, false).Close()
	for i := half; i < (blocks+2)*8192; i++ {
		w, _ := want.Next()
		if g, _ := reader.Next(); g != w {
			t.Fatalf("op %d of an evicted entry is %+v, want %+v", i, g, w)
		}
	}
	reader.Close()
	if m := cpu.ReadMemo(); m.Bytes != capBytes || m.Entries != 4 {
		t.Fatalf("the memo holds %d bytes in %d entries, want %d in 4", m.Bytes, m.Entries, capBytes)
	}
}

// BenchmarkRunAheadQuickStream reads one Quick core's stream (24 000
// ops, 3 blocks) through a supply that generates it (miss) and through
// one that reads the memo's copy (hit).
func BenchmarkRunAheadQuickStream(b *testing.B) {
	const maxInstr = 24_000
	prof, _ := workload.ByName("403.gcc")
	read := func(key streamKey) {
		gen, _ := workload.NewGeneratorAt(key.prof, key.seed, key.base)
		a := cpu.RunAhead(gen, maxInstr, key)
		for i := 0; i < maxInstr; i++ {
			a.Next()
		}
		a.Close()
	}
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			read(streamKey{prof, freshSeed(), 0})
		}
	})
	b.Run("hit", func(b *testing.B) {
		key := streamKey{prof, freshSeed(), 0}
		read(key)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(key)
		}
	})
}

// settled waits up to a second for the goroutine count to fall back to
// base and reports whether it did. gc collects garbage on every try, so
// that finalizers of dropped systems run.
func settled(base int, gc bool) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if gc {
			runtime.GC()
		}
		if runtime.NumGoroutine() <= base {
			return true
		}
	}
	return false
}

// TestFailedBuildLeaksNoGoroutine: a build that fails after it has
// started a core's supply — the second core's profile is invalid —
// stops that supply before it returns.
func TestFailedBuildLeaksNoGoroutine(t *testing.T) {
	good, _ := workload.ByName("403.gcc")
	bad := good
	bad.BranchSites = 0
	base := runtime.NumGoroutine()
	if _, err := BuildCMP(Conventional, []workload.Profile{good, bad}, CMPOptions{}); err == nil {
		t.Fatal("a build with an invalid profile succeeded")
	}
	if !settled(base, false) {
		t.Errorf("%d goroutines after a failed build, want %d", runtime.NumGoroutine(), base)
	}
}

// TestDroppedSystemsLeakNoGoroutine: a system dropped without Close —
// as callers that build machines directly do — leaks no producer; the
// garbage collector stops it. Half the systems ran a little first.
func TestDroppedSystemsLeakNoGoroutine(t *testing.T) {
	prof, _ := workload.ByName("429.mcf")
	base := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		s, err := Build(Kind(i%4), prof, Options{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			s.Prewarm()
			s.Run(1000)
		}
	}
	if !settled(base, true) {
		t.Errorf("%d goroutines after dropping 64 systems and collecting, want %d", runtime.NumGoroutine(), base)
	}
}
