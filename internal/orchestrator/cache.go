package orchestrator

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
	"repro/internal/obs/tracez"
)

// tmpOrphanGrace is how old a stray temp file in the cache directory
// must be before the open-time sweep deletes it. Anything younger may
// belong to a live writer in another process (fleet worker, CLI) that
// is about to rename it into place.
const tmpOrphanGrace = time.Hour

// Cache memoizes job results by content address: an in-memory LRU in
// front of an optional JSON file store, so identical runs are never
// recomputed — not within a process, and with a store directory not
// across processes either.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	cap     int
	dir     string // "" = memory only

	hits   atomic.Uint64
	misses atomic.Uint64

	// faults arms the disk paths (cache_write / cache_read injection
	// points); nil when chaos is off.
	faults atomic.Pointer[faultinject.Injector]

	// writeErrs counts consecutive file-store write failures; any
	// successful save resets it. At degradedAfter the cache reports
	// Degraded and the orchestrator goes read-only.
	writeErrs atomic.Int64
}

type cacheEntry struct {
	key string
	res *JobResult
}

// NewCache creates a cache holding up to capacity results in memory
// (capacity <= 0 selects a generous default). dir, when non-empty, is
// created on demand and used as a write-through JSON file store keyed by
// content address; corrupt or missing files degrade to cache misses.
func NewCache(capacity int, dir string) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if dir != "" {
		// Sweep debris from writers killed between create and rename: a
		// crashed daemon or worker leaves .<key>.json.tmp-* files that
		// would otherwise accumulate forever. The grace window protects
		// live writers in sibling processes.
		if removed, err := atomicfile.SweepOrphans(dir, tmpOrphanGrace); err != nil {
			fmt.Fprintf(os.Stderr, "orchestrator: cache orphan sweep: %v\n", err)
		} else if len(removed) > 0 {
			fmt.Fprintf(os.Stderr, "orchestrator: cache %s: swept %d stale tmp orphan(s)\n", dir, len(removed))
		}
	}
	return &Cache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		cap:     capacity,
		dir:     dir,
	}
}

// SetFaults arms the cache's disk paths with a fault injector (nil
// disarms). Test and chaos-mode plumbing only.
func (c *Cache) SetFaults(in *faultinject.Injector) { c.faults.Store(in) }

// Degraded reports whether the file store has failed degradedAfter
// consecutive writes. A memory-only cache never degrades.
func (c *Cache) Degraded() bool {
	return c.dir != "" && c.writeErrs.Load() >= degradedAfter
}

// probe attempts one durable write so a degraded store can notice the
// disk healed. The marker name has no temp infix (the orphan sweep
// ignores it) and no .json suffix (no key ever resolves to it).
func (c *Cache) probe() {
	if c.dir == "" {
		return
	}
	err := atomicfile.Write(filepath.Join(c.dir, ".lnuca-write-probe"), []byte("probe\n"), atomicfile.Options{
		Faults: c.faults.Load(),
		Point:  faultinject.PointCacheWrite,
	})
	if err != nil {
		c.writeErrs.Add(1)
		return
	}
	c.writeErrs.Store(0)
}

// Get returns the memoized result for a content key, consulting the file
// store on an in-memory miss.
func (c *Cache) Get(key string) (*JobResult, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		res := el.Value.(*cacheEntry).res // read under the lock: install may overwrite it
		c.mu.Unlock()
		c.hits.Add(1)
		return res, true
	}
	c.mu.Unlock()
	if res, ok := c.load(key); ok {
		c.install(key, res)
		c.hits.Add(1)
		return res, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put memoizes a result, evicting the least recently used entry when the
// memory capacity is exceeded and writing through to the file store.
//
// Phases are stripped first: they describe one execution (wall times,
// gating counters), not the job's content, and storing them would make
// cache entries differ byte-for-byte between e.g. gated and ungated
// executions of the same job — breaking the determinism contract that
// identical jobs have identical cache files.
func (c *Cache) Put(key string, res *JobResult) {
	c.PutCtx(context.Background(), key, res)
}

// PutCtx is Put with the submitting request's context, so an injected
// persist failure is attributed to the job's trace in the fault-event
// stream. The trace context influences telemetry only — the stored
// bytes are identical with and without it.
func (c *Cache) PutCtx(ctx context.Context, key string, res *JobResult) {
	if res != nil && res.Phases != nil {
		cp := *res
		cp.Phases = nil
		res = &cp
	}
	if c.dir == "" {
		c.install(key, res)
		return
	}
	// Encode once: these bytes go to the file and stay on the entry, where
	// MarshalJSON serves them on every later hit. The entry is a copy, so
	// the caller's struct is left as it came.
	data, err := res.encode()
	if err == nil && res != nil {
		entry := *res
		entry.stored = data
		res = &entry
	}
	c.install(key, res)
	if err == nil {
		err = c.save(key, data, tracez.TraceIDFrom(ctx))
	}
	if err != nil {
		// The store is an optimization; a failed write only costs a
		// recomputation in a future process. But consecutive failures
		// are a sick disk, and feed Degraded.
		n := c.writeErrs.Add(1)
		fmt.Fprintf(os.Stderr, "orchestrator: cache store: %v (%d consecutive)\n", err, n)
		if n == degradedAfter {
			fmt.Fprintf(os.Stderr, "orchestrator: cache %s: %d consecutive write failures — entering degraded (read-only) mode\n", c.dir, n)
		}
	} else {
		c.writeErrs.Store(0)
	}
}

func (c *Cache) install(key string, res *JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for len(c.entries) > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits and Misses report the lookup counters; HitRate is hits over
// lookups (zero when nothing was looked up yet).
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// HitRate returns hits / (hits + misses).
func (c *Cache) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

func (c *Cache) load(key string) (*JobResult, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if out := c.faults.Load().At(faultinject.PointCacheRead); out.Fired {
		if out.Tear > 0 {
			// Injected short read: the unmarshal below sees a prefix and
			// takes the discard-corrupt path, same as real tail loss.
			data = data[:int(out.Tear*float64(len(data)))]
		} else {
			return nil, false // injected read error: degrade to a miss
		}
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		// A corrupt store entry would otherwise degrade this key to a
		// miss on every future lookup (the recomputed result lands in
		// memory first, and a daemon restart re-reads the bad file).
		// Remove it so the result is recomputed and re-stored once.
		c.discardCorrupt(path, err)
		return nil, false
	}
	if !res.Valid() {
		c.discardCorrupt(path, fmt.Errorf("decoded result is structurally invalid"))
		return nil, false
	}
	if res.Phases != nil {
		// Put never stores Phases: a foreign or hand-edited file. Cached
		// results carry none, so neither does this one, and it is encoded
		// per hit — its file's bytes are not what it now says.
		res.Phases = nil
	} else {
		// A hit splices these bytes into its answer as they are, so they are
		// made here, once, what encoding/json made of a file's bytes on every
		// hit before: compact and HTML-escaped, as a file Put wrote already is.
		res.stored, _ = json.Marshal(json.RawMessage(data)) // data has just decoded: it marshals
	}
	return &res, true
}

func (c *Cache) discardCorrupt(path string, cause error) {
	fmt.Fprintf(os.Stderr, "orchestrator: removing corrupt cache entry %s: %v\n", path, cause)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "orchestrator: cache remove: %v\n", err)
	}
}

func (c *Cache) save(key string, data []byte, traceID string) error {
	// Write-to-temp + atomic rename, with a unique temp name per writer:
	// concurrent processes (fleet workers, a coordinator, CLIs sharing
	// one cache dir) may persist the same key at once, and a shared temp
	// path would let one writer rename the other's half-written file.
	// Identical content makes the race benign — last rename wins with the
	// same bytes.
	return atomicfile.Write(c.path(key), data, atomicfile.Options{
		Faults:  c.faults.Load(),
		Point:   faultinject.PointCacheWrite,
		TraceID: traceID,
	})
}
