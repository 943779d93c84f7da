package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/hpcg"
	"repro/internal/telemetry"
)

// ErrCheckpointDemanded is the RunError cause of a run stopped by a
// Checkpointer.Demand trigger: the snapshot was taken and emitted at the
// cursor the RunError carries, so the run can be resumed byte-exactly.
var ErrCheckpointDemanded = errors.New("core: checkpoint demanded, run stopped at instance boundary")

// Checkpointer configures periodic state snapshots of a deterministic run.
// Snapshots happen only at instance boundaries (after an ExitRegion has
// flushed the sampling engine), so restoring one and continuing reproduces
// the uninterrupted run byte for byte.
type Checkpointer struct {
	// Every takes a snapshot after every N completed instances (no final
	// snapshot: a finished run has nothing to resume). Zero disables
	// periodic snapshots (useful with only Resume set).
	Every int
	// Tag fingerprints the producing configuration; it is stamped into
	// every snapshot and validated against Resume. Build it with
	// CheckpointTag.
	Tag string
	// Sink receives each snapshot; an error aborts the run.
	Sink func(*checkpoint.Snapshot) error
	// Resume, when set, restores this snapshot after setup and continues
	// from its cursor instead of starting at the beginning.
	Resume *checkpoint.Snapshot
	// Demand, when non-nil, is polled at every instance boundary (the same
	// quiescent points as the cancellation poll). When it returns true the
	// run snapshots at that boundary, emits the snapshot, and stops with a
	// *RunError wrapping ErrCheckpointDemanded — the mechanism a draining
	// server uses to park an in-flight run it cannot let finish. The poll
	// must be cheap (an atomic load); it runs once per instance.
	Demand func() bool
	// Progress, when non-nil, receives instance/cycle/cache-level counters
	// at every instance boundary (atomic stores, no allocation — see
	// ObserveProgress). Unlike the fields above it never changes the run:
	// observed and unobserved runs execute the identical instruction
	// stream.
	Progress *telemetry.Progress
}

// CheckpointTag fingerprints a run configuration for snapshot validation:
// resuming under a different scenario, thread count, simulation path,
// NUMA topology or sampling configuration would silently diverge, so the
// tag makes the mismatch loud.
func CheckpointTag(name string, threads int, cfg Config) string {
	path := "fast"
	if cfg.Reference {
		path = "reference"
	}
	tag := fmt.Sprintf("%s|t%d|%s", name, threads, path)
	if n := cfg.NUMA; n.Sockets > 0 {
		tag += fmt.Sprintf("|numa:%d,%s,%d,%d", n.Sockets, n.Policy, n.PageSize, n.RemoteDRAMLatency)
	}
	p := cfg.Monitor.PEBS
	return tag + fmt.Sprintf("|pebs:%d,%d,%t,%d,%d|mux:%d",
		p.Period, p.Events, p.Randomize, p.Seed, p.LatencyThreshold, cfg.Monitor.MuxQuantumNs)
}

// demanded reports whether a demand trigger is armed and has fired; safe on
// a nil receiver so the run loops can poll unconditionally.
func (ck *Checkpointer) demanded() bool {
	return ck != nil && ck.Demand != nil && ck.Demand()
}

// save snapshots m at cursor cur — with the CG solver state when cg is
// non-nil — and hands the snapshot to the sink.
func (ck *Checkpointer) save(m *Machine, cur checkpoint.Cursor, cg *hpcg.CGRun) error {
	snap, err := m.Snapshot(cur, ck.Tag)
	if err != nil {
		return err
	}
	if cg != nil {
		st := cg.State()
		snap.CG = &st
	}
	if err := faultinject.Hit(faultinject.PointCheckpoint); err != nil {
		return fmt.Errorf("core: checkpoint at (thread %d, iter %d): %w", cur.Thread, cur.Iter, err)
	}
	if ck.Sink == nil {
		return nil
	}
	if err := ck.Sink(snap); err != nil {
		return fmt.Errorf("core: checkpoint sink at (thread %d, iter %d): %w", cur.Thread, cur.Iter, err)
	}
	return nil
}

// Snapshot captures the machine's full mutable state at an instance
// boundary.
func (m *Machine) Snapshot(cur checkpoint.Cursor, tag string) (*checkpoint.Snapshot, error) {
	snap := &checkpoint.Snapshot{Tag: tag, Cursor: cur}
	for _, th := range m.Threads {
		ms, err := th.Mon.State()
		if err != nil {
			return nil, err
		}
		snap.Threads = append(snap.Threads, checkpoint.ThreadState{Mon: ms, Hier: th.Hier.State()})
	}
	for _, l3 := range m.L3s {
		snap.L3s = append(snap.L3s, l3.State())
	}
	if m.Placement != nil {
		ps := m.Placement.State()
		snap.Placement = &ps
	}
	snap.Registry = m.Primary().Mon.Registry().State()
	return snap, nil
}

// RestoreSnapshot overwrites the mutable state of a machine that has been
// rebuilt by an identical setup.
func (m *Machine) RestoreSnapshot(snap *checkpoint.Snapshot, tag string) error {
	if snap.Tag != tag {
		return fmt.Errorf("core: snapshot tag %q does not match run %q", snap.Tag, tag)
	}
	if len(snap.Threads) != len(m.Threads) {
		return fmt.Errorf("core: snapshot has %d threads, machine has %d", len(snap.Threads), len(m.Threads))
	}
	if len(snap.L3s) != len(m.L3s) {
		return fmt.Errorf("core: snapshot has %d shared caches, machine has %d", len(snap.L3s), len(m.L3s))
	}
	if (snap.Placement != nil) != (m.Placement != nil) {
		return fmt.Errorf("core: snapshot and machine disagree on NUMA placement")
	}
	for t, th := range m.Threads {
		if err := th.Mon.RestoreState(snap.Threads[t].Mon); err != nil {
			return fmt.Errorf("core: thread %d: %w", t+1, err)
		}
		if err := th.Hier.RestoreState(snap.Threads[t].Hier); err != nil {
			return fmt.Errorf("core: thread %d: %w", t+1, err)
		}
	}
	for i, l3 := range m.L3s {
		if err := l3.RestoreState(snap.L3s[i]); err != nil {
			return fmt.Errorf("core: socket %d L3: %w", i, err)
		}
	}
	if m.Placement != nil {
		if err := m.Placement.RestoreState(*snap.Placement); err != nil {
			return err
		}
	}
	if err := m.Primary().Mon.Registry().RestoreState(snap.Registry); err != nil {
		return err
	}
	m.sortedLog, m.sortedLen = nil, 0
	for i := range m.threadLogs {
		m.threadLogs[i] = threadLog{}
	}
	return nil
}

// RunHPCGCheckpointed is RunHPCG with cancellation, fault injection,
// checkpoints and progress: the solve is driven one CG iteration at a time
// (CGRun.Step) on a 1-core Machine, flat or NUMA-routed. Between
// iterations it polls ctx and the instance fault-injection point, and the
// optional checkpointer resumes, snapshots, answers demand checkpoints
// and publishes progress there. A clean stop returns the partial result
// alongside a *RunError.
func RunHPCGCheckpointed(ctx context.Context, cfg Config, params hpcg.Params, ck *Checkpointer) (*HPCGRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := hpcg.SetupBinary(s.Bin); err != nil {
		return nil, err
	}
	problem, err := hpcg.Generate(params, s.Core, s.Mon, s.Bin)
	if err != nil {
		return nil, err
	}
	s.Mon.Start()
	cgr, err := problem.NewCGRun()
	if err != nil {
		return nil, err
	}
	if ck != nil && ck.Resume != nil {
		if ck.Resume.CG == nil {
			return nil, fmt.Errorf("core: snapshot carries no CG solver state")
		}
		if err := s.RestoreSnapshot(ck.Resume, ck.Tag); err != nil {
			return nil, err
		}
		if err := cgr.RestoreState(*ck.Resume.CG); err != nil {
			return nil, err
		}
	}

	var runErr *RunError
	ck.observe(s.Machine, cgr.Result().Iterations)
	for {
		cur := checkpoint.Cursor{Iter: cgr.Result().Iterations}
		if err := ctx.Err(); err != nil {
			runErr = &RunError{Thread: 1, Cursor: cur, Cause: err}
			break
		}
		if err := faultinject.Hit(faultinject.PointInstance); err != nil {
			runErr = &RunError{Thread: 1, Cursor: cur, Cause: err}
			break
		}
		if ck.demanded() {
			if err := ck.save(s.Machine, cur, cgr); err != nil {
				return nil, err
			}
			runErr = &RunError{Thread: 1, Cursor: cur, Cause: ErrCheckpointDemanded}
			break
		}
		done, err := cgr.Step()
		if err != nil {
			return nil, err
		}
		k := cgr.Result().Iterations
		ck.observe(s.Machine, k)
		if done {
			break
		}
		if ck != nil && ck.Every > 0 && k%ck.Every == 0 {
			if err := ck.save(s.Machine, checkpoint.Cursor{Iter: k}, cgr); err != nil {
				return nil, err
			}
		}
	}
	s.Mon.Stop()
	run := &HPCGRun{Session: s, Problem: problem, CG: cgr.Result(), Partial: runErr != nil}
	folded, err := s.Fold(problem.RegionIteration)
	if err == nil {
		run.Folded = folded
		run.Paper = LabelPaperPhases(folded, s.FuncOf)
	}
	switch {
	case runErr != nil:
		// A partial run keeps whatever folded (nothing if no iteration
		// finished) and reports the clean stop.
		return run, runErr
	case err != nil:
		return nil, err
	}
	return run, nil
}
