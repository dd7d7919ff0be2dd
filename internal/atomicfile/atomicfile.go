// Package atomicfile is the one implementation of the repo's atomic
// persist idiom — write to a uniquely named dot-temp in the target
// directory, optionally fsync, rename over the destination — shared by
// the result cache, the trace store and the queue journal's compaction.
// Centralizing it buys two things: a single place to thread
// deterministic fault injection through every durable write (torn temp
// files, failed fsync, failed rename), and a single definition of what
// a temp file looks like, so the crash-orphan sweep below can never
// disagree with the writer about what is safe to delete.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// tmpInfix marks our temp files: ".<base>.tmp-<random>". The leading
// dot keeps them out of naive directory globs; the infix is what
// SweepOrphans keys on.
const tmpInfix = ".tmp-"

// Options tunes one atomic write.
type Options struct {
	// Sync fsyncs the temp file before the rename, for files whose loss
	// after a positive acknowledgement is unacceptable.
	Sync bool
	// Faults, when armed at Point, makes this write fail the way a
	// crashed or sick writer would: a torn temp file, a write error, a
	// failed rename — always leaving the debris a real crash leaves.
	// A nil injector is inert.
	Faults *faultinject.Injector
	Point  faultinject.Point
	// TraceID, when the write happens on behalf of a traced request,
	// attributes an injected failure to that trace in the fault-event
	// stream. Empty is fine: the firing is recorded unattributed.
	TraceID string
}

// Write atomically replaces path with data: temp file in the same
// directory (unique per writer, so concurrent writers of one key never
// clobber each other's half-written file), optional fsync, rename.
// On injected failure the temp debris is deliberately left behind —
// that is the crash being simulated, and what SweepOrphans exists to
// clean; on real failure the temp is best-effort removed as before.
func Write(path string, data []byte, opts Options) error {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+base+tmpInfix+"*")
	if err != nil {
		return err
	}
	if out := opts.Faults.AtE(opts.Point, opts.TraceID); out.Fired {
		payload := data
		if out.Tear > 0 {
			n := int(out.Tear * float64(len(data)))
			if n >= len(data) {
				n = len(data) - 1
			}
			if n < 0 {
				n = 0
			}
			payload = data[:n]
		}
		tmp.Write(payload)
		tmp.Close()
		// Debris stays: a writer that died between create and rename.
		return fmt.Errorf("atomicfile: %s: %w", path, out.ErrOrDefault())
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if opts.Sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// IsTemp reports whether a directory-entry name looks like one of our
// in-progress temp files.
func IsTemp(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, tmpInfix)
}

// SweepOrphans removes temp files in dir older than grace — debris from
// writers killed between create and rename. The grace window keeps the
// sweep safe against live writers in other processes: anything younger
// might still be renamed into place. A missing directory is an empty
// one. Returns the removed names, sorted, for logging.
func SweepOrphans(dir string, grace time.Duration) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	now := time.Now()
	var removed []string
	for _, e := range entries {
		if e.IsDir() || !IsTemp(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if now.Sub(info.ModTime()) < grace {
			continue // possibly a live writer in another process
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			removed = append(removed, e.Name())
		}
	}
	sort.Strings(removed)
	return removed, nil
}
