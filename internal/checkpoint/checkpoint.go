// Package checkpoint serializes the full mutable state of a simulation at
// an instance boundary, so a killed run can resume and produce byte-exact
// metrics and traces. A snapshot is only taken between instances, after the
// monitors have flushed their PEBS buffers: at that point the state closes
// over the record logs, the cache slabs, the counter files, the sampling
// countdowns, the NUMA page table, the object registry accounting and the
// workload/CG cursor — everything else is reconstructed deterministically
// by replaying setup from the config.
package checkpoint

import (
	"fmt"

	"repro/internal/extrae"
	"repro/internal/hpcg"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/objects"
)

// Version is the snapshot format version written by this package.
const Version = 1

// Cursor locates the next instance to execute when resuming. For workload
// runs the schedule is thread-major: all iterations of thread 1, then
// thread 2, and so on; Cursor{Thread: t, Iter: i} means thread t's
// iteration i (0-based) has not run yet. For HPCG runs Thread is 0 and
// Iter is the 0-based count of completed CG iterations.
type Cursor struct {
	Thread int
	Iter   int
}

// ThreadState is one simulated hardware thread's mutable state: its
// monitor (records, stacks, engine, core) and its private cache levels.
type ThreadState struct {
	Mon  extrae.MonitorState
	Hier memhier.HierarchyState
}

// Snapshot is the complete serializable state of a run at an instance
// boundary.
type Snapshot struct {
	// Tag fingerprints the producing configuration (scenario name, thread
	// count, reference/fast path, NUMA topology, sampling configuration).
	// Resume refuses a mismatched tag.
	Tag    string
	Cursor Cursor

	Threads []ThreadState
	// L3s holds the shared last-level caches of a Machine run (one per
	// socket); empty on the single-core flat machine, whose L3 lives
	// inside the hierarchy.
	L3s []memhier.SharedCacheState
	// Placement is the NUMA page table, nil for flat runs.
	Placement *numa.PlacementState
	Registry  objects.RegistryState
	// CG is the solver state of an HPCG run, nil for workload runs.
	CG *hpcg.CGRunState
}

// Validate performs structural sanity checks that do not need the rebuilt
// simulation: restore performs the deep validation against the actual
// geometry.
func (s *Snapshot) Validate() error {
	if len(s.Threads) == 0 {
		return fmt.Errorf("checkpoint: snapshot has no threads")
	}
	if s.Cursor.Thread < 0 || s.Cursor.Iter < 0 {
		return fmt.Errorf("checkpoint: negative cursor (%d, %d)", s.Cursor.Thread, s.Cursor.Iter)
	}
	if s.Cursor.Thread > len(s.Threads) {
		return fmt.Errorf("checkpoint: cursor thread %d beyond %d threads", s.Cursor.Thread, len(s.Threads))
	}
	return nil
}
