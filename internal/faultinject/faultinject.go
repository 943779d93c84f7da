// Package faultinject is the error-point registry of the robustness test
// harness: named points in the production code consult the registry (a
// single atomic load when nothing is armed) and return an injected error on
// the configured hit, letting the test suite prove that an ENOSPC mid-trace,
// a partial write, or a kill at operation N surfaces as a clean structured
// error — never a corrupt artifact or a hang.
//
// Points are compile-time strings owned by the package that hits them
// ("core.instance", "atomicio.write", "atomicio.close", "atomicio.rename").
// The registry is global and mutex-protected; production fast paths pay one
// atomic load while the registry is empty, which is the armed-by-tests-only
// contract.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// ErrInjected is the default injected failure, recognizable with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Point names hit by production code. Centralizing the spellings keeps the
// arm sites and the hit sites from drifting apart.
const (
	// PointInstance fires at instance boundaries of the deterministic core
	// run loop (the "kill at op N" point).
	PointInstance = "core.instance"
	// PointWrite, PointClose and PointRename fire inside the atomic artifact
	// writer (ENOSPC / partial write / failed replace).
	PointWrite  = "atomicio.write"
	PointClose  = "atomicio.close"
	PointRename = "atomicio.rename"
	// PointCheckpoint fires before a checkpoint snapshot is written.
	PointCheckpoint = "checkpoint.write"
	// The simd server's error points: request admission, queue insertion,
	// job execution, the shared-cache write after a simulated run, and the
	// drain-time checkpoint/park path. Arming them proves a fault at any
	// server stage surfaces as a structured, retryable error — never a
	// lost job, a torn cache entry or a wedged queue.
	PointServerAccept     = "simd.accept"
	PointServerEnqueue    = "simd.enqueue"
	PointServerRun        = "simd.run"
	PointServerCacheWrite = "simd.cachewrite"
	PointServerDrain      = "simd.drain.checkpoint"
)

type point struct {
	after uint64 // fire on the after-th hit (1-based)
	hits  uint64
	err   error
}

var (
	armed  atomic.Int32
	mu     sync.Mutex
	points = map[string]*point{}
)

// Enable arms name to fail on its after-th Hit (1-based; 1 fails the next
// hit) and on every hit past it, with err (nil selects ErrInjected).
func Enable(name string, after uint64, err error) {
	if after == 0 {
		after = 1
	}
	if err == nil {
		err = ErrInjected
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{after: after, err: err}
}

// Reset disarms every point (deferred by every test that arms one).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for name := range points {
		delete(points, name)
	}
	armed.Store(0)
}

// Hit reports one pass over the named point: nil while the point is unarmed
// or its trigger count not yet reached, the injected error afterwards. The
// unarmed fast path is one atomic load.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return nil
	}
	p.hits++
	if p.hits >= p.after {
		return fmt.Errorf("%s: %w", name, p.err)
	}
	return nil
}

// Hits returns the recorded hit count of an armed point (0 if unarmed).
func Hits(name string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// Writer wraps w so every Write consults the named point first; when the
// point fires, half the buffer is written through before the injected error
// returns — the torn, short write a real ENOSPC produces.
func Writer(w io.Writer, name string) io.Writer {
	return &faultWriter{w: w, name: name}
}

type faultWriter struct {
	w    io.Writer
	name string
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if err := Hit(fw.name); err != nil {
		n, _ := fw.w.Write(p[:len(p)/2])
		return n, err
	}
	return fw.w.Write(p)
}
