package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// sampleOps is a small mixed stream exercising every class and field.
func sampleOps() []cpu.Op {
	return []cpu.Op{
		{Class: cpu.ClassInt, Dep1: 3, Dep2: 7},
		{Class: cpu.ClassLoad, Addr: 0x1000_0040, Dep1: 1},
		{Class: cpu.ClassLoad, Addr: 0x1000_0060},
		{Class: cpu.ClassStore, Addr: 0x2000_0000, Dep1: 2},
		{Class: cpu.ClassBranch, PC: 16, Taken: true, Dep1: 4},
		{Class: cpu.ClassBranch, PC: 48, Taken: false},
		{Class: cpu.ClassFP, Dep1: 9, Dep2: 2, Lat: 6},
		{Class: cpu.ClassLoad, Addr: 0}, // address 0 is legitimate (hot base)
	}
}

func sampleMeta() Meta {
	return Meta{Benchmark: "400.perlbench", Seed: 7, Warmup: 100, Measure: 400}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := New(sampleMeta(), sampleOps())
	if tr.Header.Ops != uint64(len(sampleOps())) {
		t.Fatalf("header ops = %d, want %d", tr.Header.Ops, len(sampleOps()))
	}
	if !ValidID(tr.ID()) {
		t.Fatalf("malformed content hash %q", tr.ID())
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip changed the trace:\n got %+v\nwant %+v", got, tr)
	}
}

// TestContentHashGolden pins the trace identity and the file's framing.
// The hash covers the record encoding, so it is part of the on-disk and
// job-key contract: if this test fails, stored traces and cached
// trace-run results written by other builds will not be found. Change
// the format only with a schema bump, and regenerate these constants
// deliberately.
func TestContentHashGolden(t *testing.T) {
	tr := New(sampleMeta(), sampleOps())
	const want = "fc104111218e1f4d4c550ede6235b191fcbdb17fcb318065a4bfc6847400d5ca"
	if tr.ID() != want {
		t.Errorf("content hash drifted:\n got %s\nwant %s", tr.ID(), want)
	}
	// The header line a trace file carries after its magic line.
	const header = `{"schema":"lnuca-trace-v1","benchmark":"400.perlbench","seed":7,"warmup":100,"measure":400,"ops":8,"id":"` + want + `"}`
	if b, err := json.Marshal(tr.Header); err != nil || string(b) != header {
		t.Errorf("header line drifted (%v):\n got %s\nwant %s", err, b, header)
	}
	if magic != "LNUCATRACEv1\n" {
		t.Errorf("magic line drifted: %q", magic)
	}
}

func TestContentHashDistinguishesMeta(t *testing.T) {
	ops := sampleOps()
	a := New(Meta{Benchmark: "400.perlbench", Seed: 1, Warmup: 10, Measure: 20}, ops)
	ids := map[string]string{a.ID(): "base"}
	for name, m := range map[string]Meta{
		"seed":    {Benchmark: "400.perlbench", Seed: 2, Warmup: 10, Measure: 20},
		"warmup":  {Benchmark: "400.perlbench", Seed: 1, Warmup: 11, Measure: 20},
		"measure": {Benchmark: "400.perlbench", Seed: 1, Warmup: 10, Measure: 21},
		"bench":   {Benchmark: "401.bzip2", Seed: 1, Warmup: 10, Measure: 20},
	} {
		id := New(m, ops).ID()
		if prev, dup := ids[id]; dup {
			t.Errorf("meta variant %q collides with %q", name, prev)
		}
		ids[id] = name
	}
}

func TestDecodeRejectsCorruptInputs(t *testing.T) {
	tr := New(sampleMeta(), sampleOps())
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); err == nil {
			t.Error("decoding nothing should fail")
		}
	})
	t.Run("not-gzip", func(t *testing.T) {
		if _, err := Decode([]byte("plain text")); err == nil {
			t.Error("non-gzip input should fail")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{1, 10, len(data) / 2, len(data) - 1} {
			if _, err := Decode(data[:n]); err == nil {
				t.Errorf("truncation to %d bytes should fail", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		gz.Write([]byte("NOTATRACE....\n{}\n"))
		gz.Close()
		if _, err := Decode(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("bad magic should fail, got %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := *tr
		bad.Header.Schema = "lnuca-trace-v0"
		enc, err := bad.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Errorf("wrong schema should fail, got %v", err)
		}
	})
	t.Run("hash-mismatch", func(t *testing.T) {
		bad := *tr
		bad.Ops = append([]cpu.Op(nil), tr.Ops...)
		bad.Ops[0].Dep1++ // payload no longer matches the header hash
		enc, err := bad.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "hash") {
			t.Errorf("tampered payload should fail, got %v", err)
		}
	})
	t.Run("overclaimed-ops", func(t *testing.T) {
		// A header claiming more records than the payload can hold (each
		// is ≥ 2 bytes) must be rejected before any allocation scales
		// with the claim. Forge the frame by hand: Encode refuses the
		// mismatch, and the content hash must cover the lie.
		forged := *tr
		forged.Header.Ops = maxOps
		forged.Header.ID = contentHash(forged.Header, encodeRecords(tr.Ops))
		hdrJSON, err := json.Marshal(forged.Header)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		gz.Write([]byte(magic))
		gz.Write(hdrJSON)
		gz.Write([]byte("\n"))
		gz.Write(encodeRecords(tr.Ops))
		gz.Close()
		if _, err := Decode(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "cannot hold") {
			t.Errorf("over-claimed op count should fail early, got %v", err)
		}
	})
	t.Run("implausible-ops", func(t *testing.T) {
		bad := *tr
		bad.Header.Ops = 1 << 40
		bad.Ops = nil
		if _, err := bad.Encode(); err == nil {
			t.Error("encode should reject an op-count mismatch")
		}
	})
}

func TestValidID(t *testing.T) {
	tr := New(sampleMeta(), nil)
	if !ValidID(tr.ID()) {
		t.Errorf("real id %q rejected", tr.ID())
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("0", 63)} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true", bad)
		}
	}
}

func TestRecorderPassThrough(t *testing.T) {
	p, ok := workload.ByName("403.gcc")
	if !ok {
		t.Fatal("missing catalog benchmark")
	}
	direct := workload.MustGenerator(p, 5)
	rec := NewRecorder(workload.MustGenerator(p, 5))
	const n = 500
	for i := 0; i < n; i++ {
		want, _ := direct.Next()
		got, ok := rec.Next()
		if !ok || got != want {
			t.Fatalf("op %d: recorder perturbed the stream: got %+v want %+v", i, got, want)
		}
	}
	if rec.Len() != n {
		t.Fatalf("recorded %d ops, want %d", rec.Len(), n)
	}
	rec.Reserve(100)
	if rec.Len() != n+100 {
		t.Fatalf("after Reserve: %d ops, want %d", rec.Len(), n+100)
	}
}

func TestReplayerReproducesStream(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	rec := NewRecorder(workload.MustGenerator(p, 3))
	for i := 0; i < 300; i++ {
		rec.Next()
	}
	tr := rec.Trace(Meta{Benchmark: p.Name, Seed: 3, Warmup: 100, Measure: 200})

	// The replayed stream matches a fresh generator op for op.
	fresh := workload.MustGenerator(p, 3)
	rep := NewReplayer(tr)
	for i := 0; i < 300; i++ {
		want, _ := fresh.Next()
		got, ok := rep.Next()
		if !ok || got != want {
			t.Fatalf("op %d: replay diverges: got %+v want %+v", i, got, want)
		}
	}
	if _, ok := rep.Next(); ok {
		t.Error("replayer should end after the recorded ops")
	}
	if rep.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", rep.Remaining())
	}
}

func TestGeneratorTraceRoundTrip(t *testing.T) {
	// A realistic stream (every op class, delta-friendly addresses)
	// encodes and decodes losslessly.
	p, _ := workload.ByName("470.lbm")
	rec := NewRecorder(workload.MustGenerator(p, 11))
	for i := 0; i < 5000; i++ {
		rec.Next()
	}
	tr := rec.Trace(Meta{Benchmark: p.Name, Seed: 11, Warmup: 1000, Measure: 4000})
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ops, tr.Ops) {
		t.Fatal("decoded ops differ from recorded ops")
	}
	t.Logf("5000 ops encode to %d bytes (%.2f B/op)", len(data), float64(len(data))/5000)
}

func TestStoreMemory(t *testing.T) {
	s := NewStore("")
	tr := New(sampleMeta(), sampleOps())
	hdr, err := s.Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != tr.ID() {
		t.Fatalf("store id %s, want %s", hdr.ID, tr.ID())
	}
	if !s.Has(hdr.ID) {
		t.Error("Has after Put = false")
	}
	got, err := s.Get(hdr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ops, tr.Ops) {
		t.Error("stored ops differ")
	}
	if _, err := s.Get(strings.Repeat("0", 64)); err == nil {
		t.Error("unknown id should fail")
	}
	if _, err := s.Get("not-an-id"); err == nil {
		t.Error("malformed id should fail")
	}
	if n := len(s.List()); n != 1 {
		t.Errorf("List len = %d, want 1", n)
	}
}

func TestStoreDir(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	tr := New(sampleMeta(), sampleOps())
	hdr, err := s.Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	// A second store over the same directory sees the trace: the
	// cross-process sharing lnucad and the CLIs rely on.
	s2 := NewStore(dir)
	if !s2.Has(hdr.ID) {
		t.Error("second store misses the persisted trace")
	}
	got, err := s2.Get(hdr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ops, tr.Ops) {
		t.Error("persisted ops differ")
	}
	list := s2.List()
	if len(list) != 1 || list[0].ID != hdr.ID {
		t.Errorf("List = %+v, want one entry %s", list, hdr.ID)
	}
}

func TestStorePrunedFileDropsOut(t *testing.T) {
	// An operator deleting a .lntrace file must make the store forget
	// it: Has answers from the file, and List drops the stale header —
	// otherwise submit-time existence checks pass for streams a worker
	// can no longer load.
	dir := t.TempDir()
	s := NewStore(dir)
	hdr, err := s.Put(New(sampleMeta(), sampleOps()))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.List()) != 1 || !s.Has(hdr.ID) {
		t.Fatal("trace not visible after Put")
	}
	if err := os.Remove(filepath.Join(dir, hdr.ID+ext)); err != nil {
		t.Fatal(err)
	}
	if s.Has(hdr.ID) {
		t.Error("Has = true for a pruned trace file")
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("List still shows %d pruned entries", n)
	}
}

func TestStorePutBytesIdempotent(t *testing.T) {
	s := NewStore(t.TempDir())
	tr := New(sampleMeta(), sampleOps())
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s.PutBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.PutBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("re-upload changed identity: %s vs %s", h1.ID, h2.ID)
	}
	if n := len(s.List()); n != 1 {
		t.Errorf("List len = %d, want 1", n)
	}
	if _, err := s.PutBytes([]byte("garbage")); err == nil {
		t.Error("garbage upload should fail")
	}
}

func TestStorePutCopiesOps(t *testing.T) {
	// Mutating the slice after Put must not corrupt what Get serves
	// under the original content hash.
	s := NewStore("")
	ops := sampleOps()
	tr := New(sampleMeta(), ops)
	hdr, err := s.Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	ops[0].Dep1 = 999
	got, err := s.Get(hdr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ops[0].Dep1 == 999 {
		t.Error("stored trace aliases the caller's ops slice")
	}
}

func TestStoreMemoryCapRejectsLoudly(t *testing.T) {
	s := NewStore("")
	var lastID string
	for i := 0; i < maxMemTraces; i++ {
		m := sampleMeta()
		m.Seed = uint64(i + 1) // distinct content hash per entry
		hdr, err := s.Put(New(m, sampleOps()))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		lastID = hdr.ID
	}
	m := sampleMeta()
	m.Seed = uint64(maxMemTraces + 1)
	if _, err := s.Put(New(m, sampleOps())); err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("overflow Put should fail loudly, got %v", err)
	}
	// Re-putting an existing trace is still fine at capacity.
	m.Seed = uint64(maxMemTraces)
	if _, err := s.Put(New(m, sampleOps())); err != nil {
		t.Errorf("idempotent re-put at capacity failed: %v", err)
	}
	if !s.Has(lastID) {
		t.Error("capacity rejection must not evict existing traces")
	}
}

func TestStoreHeaderWithoutFullDecode(t *testing.T) {
	dir := t.TempDir()
	hdr, err := NewStore(dir).Put(New(sampleMeta(), sampleOps()))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store over the directory resolves the header (metadata
	// path) and still rejects unknown or malformed ids.
	s2 := NewStore(dir)
	got, err := s2.Header(hdr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Errorf("Header = %+v, want %+v", got, hdr)
	}
	if _, err := s2.Header(strings.Repeat("0", 64)); err == nil {
		t.Error("unknown id should fail")
	}
	if _, err := s2.Header("junk"); err == nil {
		t.Error("malformed id should fail")
	}
}

func TestStorePutRejectsForgedID(t *testing.T) {
	s := NewStore("")
	tr := New(sampleMeta(), sampleOps())
	tr.Header.ID = strings.Repeat("0", 64)
	if _, err := s.Put(tr); err == nil {
		t.Error("forged header id should be rejected")
	}
}

func TestStoreGetDetectsRenamedFile(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	tr := New(sampleMeta(), sampleOps())
	hdr, err := s.Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Rename the file to a different (valid-shaped) id: the content no
	// longer matches its address, and Get must refuse to replay it.
	other := strings.Repeat("0", 64)
	if err := os.Rename(filepath.Join(dir, hdr.ID+ext), filepath.Join(dir, other+ext)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(dir).Get(other); err == nil {
		t.Error("mis-addressed trace should be rejected")
	}
}

// Zigzag must round-trip the full int64 range.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round-trips to %d", v, got)
		}
	}
	for _, addr := range []mem.Addr{0, 1, 0xffff_ffff_ffff_ffff, 0x3000_0000} {
		delta := int64(uint64(addr) - uint64(0x1000))
		if got := uint64(0x1000) + uint64(unzigzag(zigzag(delta))); got != uint64(addr) {
			t.Errorf("addr delta round trip failed for %#x", uint64(addr))
		}
	}
}
