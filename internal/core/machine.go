package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/faultinject"
	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// MachineThread is one simulated core's private stack: its own cache
// levels (L1/L2), core, PMU, PEBS engine and Extrae monitor — exactly what
// the paper's per-hardware-thread monitoring attaches to each OpenMP
// thread. The hierarchy's last level is the Machine's shared L3.
type MachineThread struct {
	Hier *memhier.Hierarchy
	Core *cpu.Core
	Mon  *extrae.Monitor
}

// Machine is an N-core simulated shared-memory node and the only
// execution engine: N MachineThreads running concurrently (one goroutine
// each during parallel sections), sharing one address space, one
// synthetic binary and one data-object registry. Cores are grouped into S
// sockets (S = 1 unless Config.NUMA asks for more), each socket with its
// own thread-safe shared L3; on a NUMA machine every DRAM fill
// additionally resolves through the page placement to its home memory
// node. The single-core flat machine keeps its L3 private (see
// NewMachine); a Session is its view. A 1-socket NUMA-routed Machine is
// observationally identical to the flat Machine — the partition and NUMA
// equivalence suites pin it.
type Machine struct {
	Cfg     Config
	Threads []*MachineThread
	// L3s holds every socket's shared L3, indexed by socket (empty on the
	// single-core flat machine, whose L3 is private).
	L3s []*memhier.SharedCache
	// Sockets is the socket count (1 for the flat machine).
	Sockets int
	// SocketOf maps 0-based thread index to socket index.
	SocketOf []int
	// Placement is the NUMA page placement (nil on the flat machine).
	Placement *numa.Placement
	Bin       *prog.Binary
	AS        *prog.AddressSpace

	// sortedLog memoizes MergedRecords and threadLogs the per-thread
	// sorted streams (the per-monitor logs are append-only, so an
	// unchanged length means an unchanged log).
	sortedLog  []trace.Record
	sortedLen  int
	threadLogs []threadLog
}

type threadLog struct {
	recs []trace.Record
	n    int
}

// NewMachine builds an n-thread machine from the configuration: the last
// configured cache level becomes the per-socket shared L3, the remaining
// levels are replicated privately per thread. With cfg.NUMA.Sockets >= 1
// the machine is NUMA-routed: threads are grouped into contiguous socket
// blocks (thread t on socket t*S/n; sockets beyond the thread count hold
// memory only), and every socket's caches route DRAM traffic through one
// shared page placement.
func NewMachine(cfg Config, n int) (*Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: machine needs at least one thread, got %d", n)
	}
	cfg = applyReference(cfg)
	levels := cfg.Cache.Levels
	// One core on the flat machine has nothing to share its L3 with, so it
	// gets the fully private memhier.New hierarchy. On the fig1_hpcg32
	// shape (32³, 4 MG levels, 3 CG iterations, period 400) the per-shard
	// SharedCache mutex made the simulate stage a median 1.46 s against
	// 1.31 s for the private hierarchy over 14 alternating pairs, with
	// byte-identical output; TestSharedLLCSingleCoreEquivalence pins
	// shared ≡ private for one core.
	private := n == 1 && cfg.NUMA.Sockets == 0
	if !private && len(levels) < 2 {
		return nil, fmt.Errorf("core: machine needs >= 2 cache levels (private + shared LLC), got %d", len(levels))
	}
	privCfg := memhier.Config{
		Levels:           levels[:len(levels)-1],
		DRAMLatency:      cfg.Cache.DRAMLatency,
		NextLinePrefetch: cfg.Cache.NextLinePrefetch,
	}
	sockets := 1
	var placement *numa.Placement
	if cfg.NUMA.Sockets > 0 {
		var err error
		placement, err = numa.New(cfg.NUMA)
		if err != nil {
			return nil, err
		}
		sockets = placement.Nodes()
		if sockets == 1 && cfg.NUMA.RemoteDRAMLatency != 0 {
			// A 1-node machine has no remote fills to charge; silently
			// ignoring the override would make the config look inert
			// (the CLI layer rejects the same combination).
			return nil, fmt.Errorf("core: NUMA.RemoteDRAMLatency set on a single-socket machine (no remote node to charge)")
		}
		if sockets > 1 {
			// The remote fill cost only exists when a remote node does.
			// The default is clamped to the configured local latency: a
			// slow-DRAM hierarchy must not fail validation (remote >=
			// local) on a value this code chose itself.
			privCfg.RemoteDRAMLatency = cfg.NUMA.RemoteDRAMLatency
			if privCfg.RemoteDRAMLatency == 0 {
				privCfg.RemoteDRAMLatency = max(numa.DefaultRemoteDRAMLatency, privCfg.DRAMLatency)
			}
		}
	}
	m := &Machine{
		Cfg:        cfg,
		Sockets:    sockets,
		Placement:  placement,
		Bin:        prog.NewBinary(),
		AS:         prog.NewAddressSpace(heapBase(cfg)),
		threadLogs: make([]threadLog, n),
	}
	for s := 0; s < sockets && !private; s++ {
		llc, err := memhier.NewSharedCache(levels[len(levels)-1], 0)
		if err != nil {
			return nil, err
		}
		if placement != nil {
			router, err := placement.Router(s)
			if err != nil {
				return nil, err
			}
			llc.SetDRAMRouter(router)
		}
		m.L3s = append(m.L3s, llc)
	}
	for t := 0; t < n; t++ {
		socket := t * sockets / n
		var hier *memhier.Hierarchy
		var err error
		if private {
			hier, err = memhier.New(cfg.Cache)
		} else {
			hier, err = memhier.NewWithSharedLLC(privCfg, m.L3s[socket])
		}
		if err != nil {
			return nil, err
		}
		if placement != nil {
			router, err := placement.Router(socket)
			if err != nil {
				return nil, err
			}
			hier.SetDRAMRouter(router)
		}
		c, err := cpu.New(cfg.CPU, hier)
		if err != nil {
			return nil, err
		}
		mcfg := cfg.Monitor
		mcfg.Thread = t + 1
		if t > 0 {
			// Secondary threads resolve samples against the primary's
			// registry and leave the allocator hooks to the primary
			// (setup is single-threaded on thread 1).
			mcfg.Registry = m.Threads[0].Mon.Registry()
			mcfg.DisableAllocHooks = true
		}
		mon, err := extrae.New(mcfg, c, m.Bin, m.AS)
		if err != nil {
			return nil, err
		}
		m.SocketOf = append(m.SocketOf, socket)
		m.Threads = append(m.Threads, &MachineThread{Hier: hier, Core: c, Mon: mon})
	}
	return m, nil
}

// NThreads returns the number of simulated hardware threads.
func (m *Machine) NThreads() int { return len(m.Threads) }

// Primary returns thread 1's stack (setup, allocation instrumentation and
// scalar bookkeeping run there).
func (m *Machine) Primary() *MachineThread { return m.Threads[0] }

// StartAll enables monitoring on every thread.
func (m *Machine) StartAll() {
	for _, th := range m.Threads {
		th.Mon.Start()
	}
}

// StopAll disables monitoring and flushes pending samples on every thread.
func (m *Machine) StopAll() {
	for _, th := range m.Threads {
		th.Mon.Stop()
	}
}

// Team builds the hpcg worker team over the machine's threads (worker
// index = thread id - 1). Close it when done.
func (m *Machine) Team() (*hpcg.Team, error) {
	workers := make([]*hpcg.Worker, len(m.Threads))
	for i, th := range m.Threads {
		workers[i] = &hpcg.Worker{Core: th.Core, Mon: th.Mon}
	}
	return hpcg.NewTeam(workers)
}

// FuncOf resolves an instruction pointer to its function name ("" when
// unknown); used to label folded phases.
func (m *Machine) FuncOf(ip uint64) string {
	if loc, ok := m.Bin.Lookup(ip); ok {
		return loc.Function
	}
	return ""
}

// MergedRecords returns all threads' trace records merged into one
// chronological stream (the trace.Merge of the per-thread streams, which
// also time-sorts each thread's buffered-PEBS reorderings). The result is
// memoized; callers must not mutate it.
func (m *Machine) MergedRecords() []trace.Record {
	if len(m.Threads) == 1 {
		// One stream: share thread 1's sorted copy with Fold instead of
		// holding a second one.
		return m.threadRecords(0)
	}
	var total int
	for _, th := range m.Threads {
		total += len(th.Mon.Records())
	}
	if m.sortedLog != nil && m.sortedLen == total {
		return m.sortedLog
	}
	streams := make([][]trace.Record, len(m.Threads))
	for i, th := range m.Threads {
		streams[i] = th.Mon.Records()
	}
	m.sortedLog, m.sortedLen = trace.Merge(streams...), total
	return m.sortedLog
}

// threadRecords returns thread i's (0-based) own trace stream, time-sorted
// (buffered PEBS drains log sample records out of order) and memoized —
// per-thread folding never needs the full merged trace.
func (m *Machine) threadRecords(i int) []trace.Record {
	log := m.Threads[i].Mon.Records()
	tl := &m.threadLogs[i]
	if tl.recs != nil && tl.n == len(log) {
		return tl.recs
	}
	tl.recs, tl.n = trace.Merge(log), len(log)
	return tl.recs
}

// Fold extracts and folds the named region for one thread (1-based) from
// that thread's own stream (equivalent to ExtractThread over the merged
// trace, without re-scanning every other thread's records).
func (m *Machine) Fold(region extrae.Region, thread int) (*folding.Folded, error) {
	if thread < 1 || thread > len(m.Threads) {
		return nil, fmt.Errorf("core: thread %d out of range 1..%d", thread, len(m.Threads))
	}
	th := m.Threads[thread-1]
	instances, err := folding.ExtractThread(m.threadRecords(thread-1), int64(region), th.Mon.Task(), th.Mon.Thread())
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: no instances of region %q on thread %d", th.Mon.RegionName(region), thread)
	}
	// Bind the config defaults: FuncOf resolves through the binary, and
	// PhaseIP attributes samples taken under an instrumented call frame to
	// the outermost frame of this thread's stack table (stack ids are
	// monitor-local). E.g. the multigrid coarse-level smoother runs the
	// same code as the fine smoother, but belongs to ComputeMG_ref.
	cfg := m.Cfg.Folding
	if cfg.FuncOf == nil {
		cfg.FuncOf = m.FuncOf
	}
	if cfg.PhaseIP == nil {
		cfg.PhaseIP = func(smp folding.Sample) uint64 {
			if frames := th.Mon.Stacks().Frames(smp.StackID); len(frames) > 0 {
				return frames[len(frames)-1]
			}
			return smp.IP
		}
	}
	folded, err := folding.Fold(instances, cfg)
	if err != nil {
		return nil, err
	}
	folded.Region = int64(region)
	folded.LabelPhases(m.FuncOf)
	return folded, nil
}

// WriteTrace serializes the merged multi-thread trace and labels to the
// writers (PRV-style text and PCF). All monitors carry identical labels;
// the primary's are written.
func (m *Machine) WriteTrace(prv, pcf interface {
	Write(p []byte) (int, error)
}) error {
	recs := m.MergedRecords()
	var dur uint64
	if len(recs) > 0 {
		dur = recs[len(recs)-1].TimeNs
	}
	w, err := trace.NewWriter(prv, 1, len(m.Threads), dur)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return m.Primary().Mon.Labels().WritePCF(pcf)
}

// RunWorkload sets up, monitors and folds a partitioned synthetic workload
// on a threads-core Machine: setup on thread 1, then the deterministic
// thread-major schedule (thread t runs its static element block to
// completion before thread t+1 starts), then one folded analysis per
// thread. The partitions have no cross-block dependencies, so the
// sequential schedule is a legal interleaving; unlike a goroutine schedule
// it fixes the order of shared-L3 fills, making every run
// bit-reproducible. With one thread it is the single-core pipeline.
//
// The schedule advances one instance at a time. Between instances — the
// only program points where the monitors' sampling state is quiescent —
// it polls ctx and the instance fault-injection point, and the optional
// checkpointer resumes, snapshots, answers demand checkpoints and
// publishes progress there. A clean stop returns the partial result
// alongside a *RunError; any other error is a hard failure.
func RunWorkload(ctx context.Context, cfg Config, w workloads.PartitionedWorkload, iters, threads int, ck *Checkpointer) (*MachineWorkloadResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := NewMachine(cfg, threads)
	if err != nil {
		return nil, err
	}
	primary := m.Primary()
	if err := w.Setup(&workloads.Ctx{Core: primary.Core, Mon: primary.Mon, Bin: m.Bin}); err != nil {
		return nil, err
	}
	for _, th := range m.Threads[1:] {
		// Setup registered the region on the primary; secondaries must
		// assign the same id for the merged streams to agree.
		if got := th.Mon.RegisterRegion(w.Name()); got != w.Region() {
			return nil, fmt.Errorf("core: region %q registered as %d on thread %d, primary has %d",
				w.Name(), got, th.Mon.Thread(), w.Region())
		}
	}
	m.StartAll()
	runErr, err := m.runSequential(ctx, w, iters, ck)
	if err != nil {
		return nil, err
	}
	m.StopAll()
	// A partial result folds whatever threads completed instances; the
	// caller gets both the data and the structured error.
	res := &MachineWorkloadResult{Machine: m, Partial: runErr != nil}
	for t := 1; t <= len(m.Threads); t++ {
		folded, err := m.Fold(w.Region(), t)
		if err != nil {
			if runErr != nil {
				continue
			}
			return nil, err
		}
		res.Threads = append(res.Threads, MachineThreadRun{Thread: t, Folded: folded})
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// runSequential drives RunWorkload's thread-major schedule. The returned
// *RunError is a clean stop (resume-able); the plain error is a hard
// failure.
func (m *Machine) runSequential(ctx context.Context, w workloads.PartitionedWorkload, iters int, ck *Checkpointer) (*RunError, error) {
	start := checkpoint.Cursor{}
	if ck != nil && ck.Resume != nil {
		if err := m.RestoreSnapshot(ck.Resume, ck.Tag); err != nil {
			return nil, err
		}
		start = ck.Resume.Cursor
	}
	n, total := w.Elements(), len(m.Threads)*iters
	ck.observe(m, start.Thread*iters+start.Iter)
	for t := start.Thread; t < len(m.Threads); t++ {
		th := m.Threads[t]
		lo, hi := t*n/len(m.Threads), (t+1)*n/len(m.Threads)
		wctx := &workloads.Ctx{Core: th.Core, Mon: th.Mon, Bin: m.Bin}
		it0 := 0
		if t == start.Thread {
			it0 = start.Iter
		}
		for it := it0; it < iters; it++ {
			cur := checkpoint.Cursor{Thread: t, Iter: it}
			if err := ctx.Err(); err != nil {
				return &RunError{Thread: t + 1, Cursor: cur, Cause: err}, nil
			}
			if err := faultinject.Hit(faultinject.PointInstance); err != nil {
				return &RunError{Thread: t + 1, Cursor: cur, Cause: err}, nil
			}
			if ck.demanded() {
				if err := ck.save(m, cur, nil); err != nil {
					return nil, err
				}
				return &RunError{Thread: t + 1, Cursor: cur, Cause: ErrCheckpointDemanded}, nil
			}
			if err := w.RunPartitionRange(wctx, it, it+1, lo, hi); err != nil {
				return nil, fmt.Errorf("core: thread %d: %w", t+1, err)
			}
			// Snapshots fall on absolute instance counts, so a resumed run
			// snapshots where the uninterrupted one does.
			done := t*iters + it + 1
			ck.observe(m, done)
			if ck != nil && ck.Every > 0 && done%ck.Every == 0 && done < total {
				next := checkpoint.Cursor{Thread: t, Iter: it + 1}
				if next.Iter == iters {
					next = checkpoint.Cursor{Thread: t + 1}
				}
				if err := ck.save(m, next, nil); err != nil {
					return nil, err
				}
			}
		}
	}
	return nil, nil
}

// MachineWorkloadResult bundles a multi-threaded synthetic-workload run
// with its per-thread foldings.
type MachineWorkloadResult struct {
	Machine *Machine
	Threads []MachineThreadRun
	// Partial marks a run stopped before completion (cancellation, injected
	// fault or contained panic): Threads holds only what folded cleanly.
	Partial bool
}

// MachineThreadRun is one thread's folded view of a machine HPCG run.
type MachineThreadRun struct {
	// Thread is the 1-based thread id.
	Thread int
	// Folded is the thread's folded CG_iteration region.
	Folded *folding.Folded
	// Paper maps the thread's detected phases onto the paper's letters.
	Paper []PaperPhase
}

// MachineHPCGRun bundles the multi-threaded HPCG reproduction: the shared
// solve plus one folded analysis per thread.
type MachineHPCGRun struct {
	Machine *Machine
	Problem *hpcg.Problem
	CG      *hpcg.CGResult
	Threads []MachineThreadRun
	// Partial marks a solve aborted at an instance boundary (cancellation
	// or a contained worker panic): Threads holds only what folded cleanly.
	Partial bool
}

// RunHPCGParallel executes the paper's evaluation on an n-thread Machine:
// generate the problem once (setup on thread 1), run the OpenMP-style
// domain-partitioned CG across all threads under monitoring, merge the
// per-thread trace streams and fold each thread separately. The team polls
// ctx at every parallel-section fork and contains worker panics; an
// aborted solve returns the partial result alongside a *RunError.
func RunHPCGParallel(ctx context.Context, cfg Config, params hpcg.Params, threads int) (*MachineHPCGRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := NewMachine(cfg, threads)
	if err != nil {
		return nil, err
	}
	if err := hpcg.SetupBinary(m.Bin); err != nil {
		return nil, err
	}
	primary := m.Primary()
	problem, err := hpcg.Generate(params, primary.Core, primary.Mon, m.Bin)
	if err != nil {
		return nil, err
	}
	for _, th := range m.Threads[1:] {
		if err := problem.RegisterRegions(th.Mon); err != nil {
			return nil, err
		}
	}
	team, err := m.Team()
	if err != nil {
		return nil, err
	}
	defer team.Close()
	team.SetContext(ctx)
	m.StartAll()
	cg, err := problem.RunCGParallel(team)
	if err != nil {
		var abort *hpcg.AbortError
		if !errors.As(err, &abort) {
			return nil, err
		}
		m.StopAll()
		run := &MachineHPCGRun{Machine: m, Problem: problem, Partial: true}
		for t := 1; t <= len(m.Threads); t++ {
			folded, ferr := m.Fold(problem.RegionIteration, t)
			if ferr != nil {
				continue
			}
			run.Threads = append(run.Threads, MachineThreadRun{
				Thread: t,
				Folded: folded,
				Paper:  LabelPaperPhases(folded, m.FuncOf),
			})
		}
		return run, &RunError{Cursor: checkpoint.Cursor{Iter: abort.Iteration}, Cause: abort.Err}
	}
	m.StopAll()
	run := &MachineHPCGRun{Machine: m, Problem: problem, CG: cg}
	for t := 1; t <= len(m.Threads); t++ {
		folded, err := m.Fold(problem.RegionIteration, t)
		if err != nil {
			return nil, err
		}
		run.Threads = append(run.Threads, MachineThreadRun{
			Thread: t,
			Folded: folded,
			Paper:  LabelPaperPhases(folded, m.FuncOf),
		})
	}
	return run, nil
}

// NUMAReport assembles the per-socket traffic section of a NUMA-routed
// machine (nil on the flat machine).
func (m *Machine) NUMAReport() *report.NUMASection {
	if m.Placement == nil {
		return nil
	}
	sec := &report.NUMASection{
		Policy:   m.Placement.Policy().String(),
		PageSize: m.Placement.PageSize(),
	}
	for s := 0; s < m.Sockets; s++ {
		row := report.NUMASocketRow{Socket: s}
		for t, th := range m.Threads {
			if m.SocketOf[t] != s {
				continue
			}
			row.Threads = append(row.Threads, th.Mon.Thread())
			row.L3Misses += th.Hier.DRAMAccesses()
			row.RemoteFills += th.Hier.RemoteDRAMAccesses()
		}
		row.L3Writebacks = m.L3s[s].Stats().Writebacks
		sec.Sockets = append(sec.Sockets, row)
	}
	for n, st := range m.Placement.Stats() {
		sec.Nodes = append(sec.Nodes, report.NUMANodeRow{
			Node:        n,
			FillsLocal:  st.FillsLocal,
			FillsRemote: st.FillsRemote,
			Writebacks:  st.Writebacks,
			Pages:       st.Pages,
		})
	}
	return sec
}

// Figure assembles the cross-thread report: per-thread folded curves and
// phase tables plus the shared-L3 miss attribution (and, when NUMA-routed,
// the per-socket traffic section).
func (r *MachineHPCGRun) Figure() *report.MachineFigure {
	fig := &report.MachineFigure{}
	for _, tr := range r.Threads {
		labels := make([]string, len(tr.Paper))
		for i, pp := range tr.Paper {
			labels[i] = pp.Label
		}
		fig.Threads = append(fig.Threads, report.ThreadFigure{
			Thread:      tr.Thread,
			Folded:      tr.Folded,
			PaperLabels: labels,
		})
	}
	llcLevel := r.Machine.Primary().Hier.Levels() - 1
	for _, mt := range r.Machine.Threads {
		st := mt.Hier.LevelStats(llcLevel)
		fig.L3.PerThread = append(fig.L3.PerThread, report.L3ThreadRow{
			Thread:   mt.Mon.Thread(),
			Accesses: st.Accesses,
			Misses:   st.Misses,
		})
	}
	// Cache-wide counters sum over every socket's L3 (one L3 on the flat
	// machine, so the historical single-socket numbers are unchanged); the
	// single-core flat machine's L3 is its own last private level.
	llcs := []memhier.LevelStats{r.Machine.Primary().Hier.LevelStats(llcLevel)}
	if len(r.Machine.L3s) > 0 {
		llcs = llcs[:0]
		for _, l3 := range r.Machine.L3s {
			llcs = append(llcs, l3.Stats())
		}
	}
	for _, llc := range llcs {
		fig.L3.Writebacks += llc.Writebacks
		fig.L3.Prefetches += llc.Prefetches
		fig.L3.PrefHits += llc.PrefHits
	}
	fig.NUMA = r.Machine.NUMAReport()
	return fig
}
