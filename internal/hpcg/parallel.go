package hpcg

// OpenMP-style execution of the CG solve: a Team of simulated hardware
// threads (one goroutine each, each with its own core, monitor and private
// cache levels, sharing the Machine's L3) executes every kernel's row loop
// under static domain partitioning — thread t owns the contiguous row
// block t of every level, exactly like
// `#pragma omp parallel for schedule(static)` over the HPCG reference
// loops. The scalar CG logic (reductions, alpha/beta, convergence) runs on
// the orchestrating goroutine between parallel sections, and every
// fork-join barrier synchronizes the simulated clocks: lagging cores spin
// (Stall) up to the slowest core, which is how real barrier wait time
// shows up inside the folded kernels of an imbalanced run.
//
// SYMGS is the one kernel whose reference loop is not trivially parallel
// (row i consumes x values row i-1 just produced). The Team runs it as a
// block-Jacobi Gauss–Seidel: each thread sweeps its own block in order,
// coupling to other blocks through a snapshot of x taken at the preceding
// barrier. That is the standard OpenMP treatment of HPCG's smoother; it
// changes the numerics slightly (CG still converges) and keeps the
// simulated access pattern identical to the racy shared-x original.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/cpu"
	"repro/internal/extrae"
)

// Worker is one simulated hardware thread's execution context.
type Worker struct {
	Core *cpu.Core
	Mon  *extrae.Monitor
}

// Team is a fixed pool of workers driven in fork-join parallel sections.
// A worker panic or a context cancellation poisons the team: the fault is
// recorded (Err), the in-flight section's barrier still releases — a
// panicking worker must never strand the others — and every subsequent Run
// becomes a no-op, so the orchestrating solve observes the fault at its
// next instance boundary instead of deadlocking.
type Team struct {
	workers []*Worker
	work    []chan func()
	done    chan struct{}
	ctx     context.Context

	mu  sync.Mutex
	err error
}

// NewTeam launches one goroutine per worker. Close must be called to
// release them.
func NewTeam(workers []*Worker) (*Team, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("hpcg: team needs at least one worker")
	}
	t := &Team{workers: workers, done: make(chan struct{}, len(workers)), ctx: context.Background()}
	for i := range workers {
		ch := make(chan func())
		t.work = append(t.work, ch)
		go func(tid int, ch chan func()) {
			for f := range ch {
				t.runOne(tid, f)
			}
		}(i, ch)
	}
	return t, nil
}

// runOne executes one dispatched closure, converting a panic into the
// team's error. The barrier token is sent unconditionally: the join in Run
// must complete even when the worker died mid-kernel.
func (t *Team) runOne(tid int, f func()) {
	defer func() {
		if r := recover(); r != nil {
			t.fail(fmt.Errorf("hpcg: worker %d panicked: %v", tid+1, r))
		}
		t.done <- struct{}{}
	}()
	f()
}

// SetContext installs the cancellation source polled at every parallel
// section fork. Must be set before the solve starts; nil is ignored.
func (t *Team) SetContext(ctx context.Context) {
	if ctx != nil {
		t.ctx = ctx
	}
}

func (t *Team) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Err returns the fault that poisoned the team: the first worker panic or
// the context cancellation, nil while healthy. Orchestrating loops poll it
// at instance boundaries.
func (t *Team) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Size returns the number of workers.
func (t *Team) Size() int { return len(t.workers) }

// Close terminates the worker goroutines. The team is unusable afterwards.
func (t *Team) Close() {
	for _, ch := range t.work {
		close(ch)
	}
}

// Run executes f(tid, worker) on every worker concurrently and waits for
// all of them (a fork-join parallel section). On the join it models the
// barrier: every core that finished early spins until the slowest core's
// clock, so the team leaves each barrier with synchronized simulated time.
// Once the team is poisoned (worker panic, cancelled context) Run is a
// no-op, letting the orchestrating solve unwind without touching the
// simulated state further.
func (t *Team) Run(f func(tid int, w *Worker)) {
	if t.Err() != nil {
		return
	}
	if err := t.ctx.Err(); err != nil {
		t.fail(err)
		return
	}
	for i, ch := range t.work {
		i := i
		ch <- func() { f(i, t.workers[i]) }
	}
	for range t.work {
		<-t.done
	}
	if t.Err() != nil {
		// A worker died mid-section; the surviving clocks are whatever they
		// are. Skip the sync — the run is being abandoned.
		return
	}
	var max uint64
	for _, w := range t.workers {
		if c := w.Core.Cycles(); c > max {
			max = c
		}
	}
	for _, w := range t.workers {
		if d := max - w.Core.Cycles(); d > 0 {
			w.Core.Stall(d)
		}
	}
}

// Partition returns thread tid's static block [lo, hi) of n rows.
func (t *Team) Partition(n, tid int) (lo, hi int) {
	nt := len(t.workers)
	return tid * n / nt, (tid + 1) * n / nt
}

// RegisterRegions registers the problem's instrumented regions on mon in
// the order Generate used, so a Machine's secondary monitors assign the
// same region ids as the primary (region events must agree across the
// merged per-thread streams).
func (p *Problem) RegisterRegions(mon *extrae.Monitor) error {
	for _, rr := range []struct {
		name string
		want extrae.Region
	}{
		{"CG_iteration", p.RegionIteration},
		{"ComputeSYMGS_ref", p.RegionSYMGS},
		{"ComputeSPMV_ref", p.RegionSPMV},
		{"ComputeMG_ref", p.RegionMG},
		{"ComputeDotProduct_ref", p.RegionDot},
		{"ComputeWAXPBY_ref", p.RegionWAXPBY},
	} {
		if got := mon.RegisterRegion(rr.name); got != rr.want {
			return fmt.Errorf("hpcg: region %q registered as %d on secondary monitor, primary has %d",
				rr.name, got, rr.want)
		}
	}
	return nil
}

// snapshotX freezes x into the level's snapshot buffer for the next sweep's
// cross-block reads. With one worker there is no cross-block coupling and
// the snapshot is skipped (the sweep never consults it).
func (p *Problem) snapshotX(team *Team, lv *Level, x *Vector) []float64 {
	if team.Size() == 1 {
		return nil
	}
	if len(lv.xOld) < len(x.Data) {
		lv.xOld = make([]float64, len(x.Data))
	}
	copy(lv.xOld, x.Data)
	return lv.xOld
}

// parallelSYMGS runs the symmetric Gauss–Seidel smoother block-parallel:
// each worker sweeps its own row block forward then backward, with a
// barrier (and a fresh x snapshot) between the sweeps.
func (p *Problem) parallelSYMGS(team *Team, lv *Level, r, x *Vector) {
	xOld := p.snapshotX(team, lv, x)
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.NRows, tid)
		w.Mon.EnterRegion(p.RegionSYMGS)
		p.symgsSweep(w.Core, lv, r, x, lo, hi, true, xOld)
	})
	xOld = p.snapshotX(team, lv, x)
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.NRows, tid)
		p.symgsSweep(w.Core, lv, r, x, lo, hi, false, xOld)
		w.Mon.ExitRegion(p.RegionSYMGS)
	})
}

// parallelSpMV runs y = A*x with rows statically partitioned. x is frozen
// during the section (the caller's barriers guarantee it), so cross-block
// gathers are race-free.
func (p *Problem) parallelSpMV(team *Team, lv *Level, x, y *Vector) {
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.NRows, tid)
		w.Mon.EnterRegion(p.RegionSPMV)
		p.spmvRows(w.Core, lv, x, y, lo, hi)
		w.Mon.ExitRegion(p.RegionSPMV)
	})
}

// parallelDot computes a·b, each worker reducing its own block; the
// partials combine in worker order, keeping the result deterministic for a
// fixed thread count.
func (p *Problem) parallelDot(team *Team, a, b *Vector) float64 {
	n := len(a.Data)
	partial := make([]float64, team.Size())
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(n, tid)
		w.Mon.EnterRegion(p.RegionDot)
		partial[tid] = p.dotRange(w.Core, a, b, lo, hi)
		w.Mon.ExitRegion(p.RegionDot)
	})
	var sum float64
	for _, v := range partial {
		sum += v
	}
	return sum
}

// parallelWAXPBY computes w = alpha*x + beta*y over static blocks.
func (p *Problem) parallelWAXPBY(team *Team, alpha float64, x *Vector, beta float64, y, w *Vector) {
	n := len(w.Data)
	team.Run(func(tid int, wk *Worker) {
		lo, hi := team.Partition(n, tid)
		wk.Mon.EnterRegion(p.RegionWAXPBY)
		p.waxpbyRange(wk.Core, alpha, x, beta, y, w, lo, hi)
		wk.Mon.ExitRegion(p.RegionWAXPBY)
	})
}

// parallelMove copies src into dst (host) and issues the per-block move
// traffic.
func (p *Problem) parallelMove(team *Team, src, dst *Vector) {
	copy(dst.Data, src.Data)
	n := len(src.Data)
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(n, tid)
		p.moveRange(w.Core, src, dst, lo, hi)
	})
}

// parallelRestrict partitions the coarse rows of lv's restriction.
func (p *Problem) parallelRestrict(team *Team, lv *Level) {
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.Coarse.NRows, tid)
		p.restrictRows(w.Core, lv, lo, hi)
	})
}

// parallelProlong partitions the coarse rows of lv's prolongation; the
// injection map sends disjoint coarse blocks to disjoint fine rows.
func (p *Problem) parallelProlong(team *Team, lv *Level) {
	team.Run(func(tid int, w *Worker) {
		lo, hi := team.Partition(lv.Coarse.NRows, tid)
		p.prolongRows(w.Core, lv, lo, hi)
	})
}

// parallelMGRecurse mirrors mgRecurse with parallel kernels.
func (p *Problem) parallelMGRecurse(team *Team, lv *Level) {
	if lv.Coarse == nil {
		p.parallelSYMGS(team, lv, lv.R, lv.X)
		return
	}
	lv.X.Fill(0)
	p.parallelSYMGS(team, lv, lv.R, lv.X)  // presmooth
	p.parallelSpMV(team, lv, lv.X, lv.Axf) // residual matvec
	p.parallelRestrict(team, lv)           // move to coarse grid
	lv.Coarse.X.Fill(0)
	p.parallelMGRecurse(team, lv.Coarse)  // solve coarse
	p.parallelProlong(team, lv)           // correction back
	p.parallelSYMGS(team, lv, lv.R, lv.X) // postsmooth
}

// parallelMG mirrors MG: every worker opens the ComputeMG_ref region and
// pushes the recursion frame on its own monitor, so each thread's samples
// attribute the coarse-grid work exactly as the sequential path does.
func (p *Problem) parallelMG(team *Team, r, z *Vector) {
	fine := p.Fine
	p.parallelMove(team, r, fine.R)
	fine.X.Fill(0)

	p.parallelSYMGS(team, fine, fine.R, fine.X) // A
	if fine.Coarse != nil {
		p.parallelSpMV(team, fine, fine.X, fine.Axf) // B
		team.Run(func(_ int, w *Worker) {
			w.Mon.EnterRegion(p.RegionMG) // C covers the coarse-grid work
			w.Mon.PushFrame(p.ips.mgFrame)
		})
		p.parallelRestrict(team, fine)
		fine.Coarse.X.Fill(0)
		p.parallelMGRecurse(team, fine.Coarse)
		p.parallelProlong(team, fine)
		team.Run(func(_ int, w *Worker) {
			w.Mon.PopFrame()
			w.Mon.ExitRegion(p.RegionMG)
		})
		p.parallelSYMGS(team, fine, fine.R, fine.X) // D
	}
	p.parallelMove(team, fine.X, z)
}

// RunCGParallel executes the preconditioned conjugate gradient solve on
// the team, one instrumented "CG_iteration" region instance per iteration
// per thread. Worker 0 must be the problem's own core/monitor (the primary
// thread owns setup allocations and the scalar bookkeeping traffic). With
// a single worker the executed instruction stream is identical to stepping
// a CGRun.
func (p *Problem) RunCGParallel(team *Team) (*CGResult, error) {
	if team.workers[0].Core != p.core || team.workers[0].Mon != p.mon {
		return nil, fmt.Errorf("hpcg: team worker 0 must be the problem's primary core/monitor")
	}
	n := p.Fine.NRows
	r, err := p.newVector("cg_r", n)
	if err != nil {
		return nil, err
	}
	z, err := p.newVector("cg_z", n)
	if err != nil {
		return nil, err
	}
	pv, err := p.newVector("cg_p", n)
	if err != nil {
		return nil, err
	}
	ap, err := p.newVector("cg_Ap", n)
	if err != nil {
		return nil, err
	}

	p.X.Fill(0)
	// r = b - A*x = b (x starts at zero); p = r handled in first iteration.
	p.parallelMove(team, p.B, r)

	res := &CGResult{}
	var rtzOld float64
	normR0 := math.Sqrt(p.parallelDot(team, r, r))
	if err := team.Err(); err != nil {
		return nil, &AbortError{Iteration: 0, Err: err}
	}
	if normR0 == 0 {
		return nil, fmt.Errorf("hpcg: zero right-hand side")
	}
	for k := 1; k <= p.Params.MaxIters; k++ {
		if err := team.Err(); err != nil {
			return nil, &AbortError{Iteration: k - 1, Err: err}
		}
		team.Run(func(_ int, w *Worker) { w.Mon.EnterRegion(p.RegionIteration) })

		p.parallelMG(team, r, z) // preconditioner: phases A..D

		rtz := p.parallelDot(team, r, z)
		if k == 1 {
			p.parallelMove(team, z, pv)
		} else {
			beta := rtz / rtzOld
			p.parallelWAXPBY(team, 1, z, beta, pv, pv)
		}
		rtzOld = rtz

		p.parallelSpMV(team, p.Fine, pv, ap) // phase E
		pap := p.parallelDot(team, pv, ap)
		if err := team.Err(); err != nil {
			// Check before the breakdown test: a poisoned team produces
			// zero partials, which must not masquerade as p·Ap = 0.
			return nil, &AbortError{Iteration: k, Err: err}
		}
		if pap == 0 {
			team.Run(func(_ int, w *Worker) { w.Mon.ExitRegion(p.RegionIteration) })
			return nil, fmt.Errorf("hpcg: CG breakdown (p·Ap = 0) at iteration %d", k)
		}
		alpha := rtz / pap
		p.parallelWAXPBY(team, 1, p.X, alpha, pv, p.X)
		p.parallelWAXPBY(team, 1, r, -alpha, ap, r)

		normR := math.Sqrt(p.parallelDot(team, r, r))
		res.Residuals = append(res.Residuals, normR)
		res.Iterations = k

		team.Run(func(_ int, w *Worker) { w.Mon.ExitRegion(p.RegionIteration) })

		if p.Params.Tolerance > 0 && normR/normR0 < p.Params.Tolerance {
			res.Converged = true
			break
		}
	}
	if err := team.Err(); err != nil {
		return nil, &AbortError{Iteration: res.Iterations, Err: err}
	}
	var maxErr float64
	for i := range p.X.Data {
		if e := math.Abs(p.X.Data[i] - p.Xexact.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	res.FinalError = maxErr
	return res, nil
}
