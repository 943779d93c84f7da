// Package extrae implements the monitoring runtime: the simulated
// counterpart of BSC's Extrae tracing library with the paper's memory
// extensions. A Monitor wires together
//
//   - the simulated core's per-memory-op hook → the PEBS engine,
//   - the PEBS drain → data-object resolution and trace emission,
//   - allocator hooks → the data-object registry plus allocation events,
//   - region (user-function) instrumentation with hardware-counter
//     snapshots at every boundary and at every sample,
//   - PEBS event multiplexing: alternating load and store sampling on a
//     time quantum so one run captures both (avoiding the two-run/ASLR
//     problem the paper calls out), and
//   - the allocation-grouping instrumentation API used to wrap HPCG's many
//     small allocations into two logical objects.
package extrae

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/memhier"
	"repro/internal/objects"
	"repro/internal/pebs"
	"repro/internal/prog"
	"repro/internal/trace"
)

// Config parameterizes a Monitor.
type Config struct {
	// PEBS configures the sampling engine.
	PEBS pebs.Config
	// MuxQuantumNs alternates the PEBS engine between load-only and
	// store-only sampling every quantum (0 disables multiplexing and the
	// engine samples whatever PEBS.Events selects throughout).
	MuxQuantumNs uint64
	// MinTrackSize is the object registry's individual-allocation tracking
	// threshold.
	MinTrackSize uint64
	// DrainOverheadCycles charges the core for each PEBS buffer drain,
	// modelling the sampling interrupt cost.
	DrainOverheadCycles uint64
	// PerOpObserve selects the straightforward reference path: the monitor
	// hooks every retired memory operation and runs the engine's per-op
	// countdown, exactly like real PEBS observed through a per-op tap. The
	// default (false) inverts the control flow: the countdowns are exported
	// to the core's sample gates and the monitor only runs when a sample
	// fires or a multiplexing quantum expires. Both paths must produce
	// identical traces; equivalence tests run them against each other.
	PerOpObserve bool
	// Task and Thread identify the emitting Paraver object in trace records
	// (1-based; 0 defaults to 1). A Machine assigns one thread id per
	// simulated core so the merged trace keeps per-thread streams apart.
	Task, Thread int
	// Registry, when non-nil, is a shared data-object registry used instead
	// of a monitor-private one — the Machine's monitors all resolve samples
	// against the same object table. The binary scan is skipped (the
	// registry's creator performed it); the registry must be safe for
	// concurrent Record calls.
	Registry *objects.Registry
	// DisableAllocHooks leaves the address space's allocation hooks alone.
	// In a Machine only the primary monitor instruments the allocator
	// (setup is single-threaded); secondary monitors set this so the last
	// monitor constructed does not steal the hooks.
	DisableAllocHooks bool
}

// DefaultConfig returns the paper-like monitoring setup: default PEBS
// configuration with load/store multiplexing at 1 ms quanta, a 512-byte
// tracking threshold (HPCG's row allocations fall below it), and a small
// drain cost.
func DefaultConfig() Config {
	return Config{
		PEBS:                pebs.DefaultConfig(),
		MuxQuantumNs:        1_000_000,
		MinTrackSize:        512,
		DrainOverheadCycles: 2000,
	}
}

// Region identifies an instrumented code region (user function).
type Region int

// Monitor is the per-thread monitoring runtime. One Monitor is driven by
// one simulated hardware thread at a time (the paper's analysis is
// likewise per-thread); a Machine builds one Monitor per core, each
// emitting its own trace stream under its own thread id, optionally
// sharing one object registry.
type Monitor struct {
	cfg    Config
	core   *cpu.Core
	bin    *prog.Binary
	as     *prog.AddressSpace
	stacks *prog.StackTable
	engine *pebs.Engine
	reg    *objects.Registry

	task, thread int

	records []trace.Record
	labels  *trace.Labels

	regionNames []string
	regionStack []Region

	callStack    prog.CallStack
	curStackID   uint32
	stackDirty   bool
	pendingSnaps [][cpu.NumCounters]uint64

	muxNext  uint64
	enabled  bool
	started  bool
	finished bool

	// Countdown-gated state (when !cfg.PerOpObserve). loadRem/storeRem are
	// the authoritative per-class countdowns: armed into the core's sample
	// gates while the class is in the event mask, frozen here while it is
	// masked out. lastLoads/lastStores checkpoint the core's true
	// load/store counters so Eligible accrues arithmetically per
	// constant-mask span instead of per op.
	gated      bool
	loadRem    uint64
	storeRem   uint64
	lastLoads  uint64
	lastStores uint64
}

// New builds a monitor around a core, binary image and address space. The
// monitor installs itself as the core's memory hook and as the address
// space's allocation hooks.
func New(cfg Config, core *cpu.Core, bin *prog.Binary, as *prog.AddressSpace) (*Monitor, error) {
	if core == nil || bin == nil || as == nil {
		return nil, fmt.Errorf("extrae: core, binary and address space are required")
	}
	m := &Monitor{
		cfg:    cfg,
		core:   core,
		bin:    bin,
		as:     as,
		stacks: prog.NewStackTable(),
		labels: trace.NewLabels(),
		task:   cfg.Task,
		thread: cfg.Thread,
	}
	if m.task <= 0 {
		m.task = 1
	}
	if m.thread <= 0 {
		m.thread = 1
	}
	if cfg.Registry != nil {
		m.reg = cfg.Registry
	} else {
		m.reg = objects.NewRegistry(objects.Config{
			MinTrackSize: cfg.MinTrackSize,
			Namer:        func(id uint32) string { return m.stacks.SiteName(id, bin) },
		})
		if err := m.reg.ScanBinary(bin); err != nil {
			return nil, err
		}
	}
	eng, err := pebs.New(cfg.PEBS, m.onDrain)
	if err != nil {
		return nil, err
	}
	m.engine = eng
	if cfg.MuxQuantumNs > 0 {
		// Multiplexing starts with loads; the engine mask rotates on quanta.
		m.engine.SetEvents(pebs.SampleLoads)
		m.muxNext = core.NowNs() + cfg.MuxQuantumNs
	}
	if cfg.PerOpObserve {
		core.SetMemHook(m.onMemOp)
	} else {
		m.gated = true
		m.loadRem, m.storeRem = m.engine.Countdowns()
		core.SetGatedMemHook(m.onGatedMemOp)
		// Gates stay disarmed (never firing) until Start.
	}
	if !cfg.DisableAllocHooks {
		as.SetHooks(prog.Hooks{OnAlloc: m.onAlloc, OnFree: m.onFree})
	}
	m.initLabels()
	return m, nil
}

func (m *Monitor) initLabels() {
	m.labels.SetType(trace.TypeRegion, "User function")
	m.labels.SetValue(trace.TypeRegion, 0, "End")
	m.labels.SetType(trace.TypeSampleAddr, "Sampled address")
	m.labels.SetType(trace.TypeSampleLatency, "Sample latency (cycles)")
	m.labels.SetType(trace.TypeSampleSource, "Sample data source")
	for s := memhier.DataSource(0); s < memhier.NumSources; s++ {
		if s == memhier.SrcDRAMRemote && !m.core.Hierarchy().RemoteDRAMPossible() {
			// Single-node stacks can never emit the remote source; keep
			// their PCF value table byte-identical to the pre-NUMA format.
			continue
		}
		m.labels.SetValue(trace.TypeSampleSource, int64(s), s.String())
	}
	m.labels.SetType(trace.TypeSampleStore, "Sample is store")
	m.labels.SetValue(trace.TypeSampleStore, 0, "load")
	m.labels.SetValue(trace.TypeSampleStore, 1, "store")
	m.labels.SetType(trace.TypeSampleIP, "Sample instruction pointer")
	m.labels.SetType(trace.TypeSampleStack, "Sample callstack id")
	m.labels.SetType(trace.TypeSampleSize, "Sample access size")
	m.labels.SetType(trace.TypeAllocAddr, "Allocation address")
	m.labels.SetType(trace.TypeAllocSize, "Allocation size")
	m.labels.SetType(trace.TypeAllocStack, "Allocation callstack id")
	m.labels.SetType(trace.TypeFreeAddr, "Free address")
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		// Only programmed counters are emitted (and hence labelled): the
		// remote-DRAM event exists only on NUMA-routed cores.
		if !m.core.PMU().Programmed(c) {
			continue
		}
		m.labels.SetType(trace.TypeCounterBase+uint32(c), c.String())
	}
}

// Registry exposes the data-object registry.
func (m *Monitor) Registry() *objects.Registry { return m.reg }

// Stacks exposes the call-stack table.
func (m *Monitor) Stacks() *prog.StackTable { return m.stacks }

// Labels exposes the PCF labels accumulated so far.
func (m *Monitor) Labels() *trace.Labels { return m.labels }

// Engine exposes the PEBS engine (for stats and ablations).
func (m *Monitor) Engine() *pebs.Engine { return m.engine }

// Start enables sampling and trace emission. Allocation tracking is active
// from construction (objects allocated during setup must be known), but no
// events are recorded until Start — this models the paper's focus on the
// execution phase, "ignoring the initialization and finalization".
func (m *Monitor) Start() {
	m.enabled = true
	m.started = true
	if m.cfg.MuxQuantumNs > 0 {
		m.muxNext = m.core.NowNs() + m.cfg.MuxQuantumNs
	}
	if m.gated {
		p := m.core.PMU()
		m.lastLoads = p.True(cpu.CtrLoads)
		m.lastStores = p.True(cpu.CtrStores)
		m.armGates()
	}
}

// Stop disables sampling and flushes pending samples.
func (m *Monitor) Stop() {
	if m.gated && m.enabled {
		ev := m.engine.Events()
		m.accrueEligible(ev)
		// Preserve countdown progress: ops retired since the last hook
		// decremented the core's live gates, not loadRem/storeRem. Pull
		// that state back before disarming so a later Start re-arms
		// exactly where the per-op reference path would be.
		lg, sg, _ := m.core.SampleGates()
		if ev.Has(pebs.SampleLoads) {
			m.loadRem = lg
		}
		if ev.Has(pebs.SampleStores) {
			m.storeRem = sg
		}
		m.core.SetSampleGate(cpu.GateNever, cpu.GateNever, ^uint64(0))
	}
	m.engine.Flush()
	m.enabled = false
	m.finished = true
}

// armGates programs the core's sample gates from the monitor's countdown
// state: classes in the event mask count down, others never fire, and the
// hook cycle is the next multiplexing boundary (if any).
func (m *Monitor) armGates() {
	lg, sg := cpu.GateNever, cpu.GateNever
	ev := m.engine.Events()
	if ev.Has(pebs.SampleLoads) {
		lg = m.loadRem
	}
	if ev.Has(pebs.SampleStores) {
		sg = m.storeRem
	}
	hc := ^uint64(0)
	if m.cfg.MuxQuantumNs > 0 {
		hc = m.core.CycleForNs(m.muxNext)
	}
	m.core.SetSampleGate(lg, sg, hc)
}

// accrueEligible credits the engine's Eligible statistic with every
// mask-matching operation retired since the last checkpoint, and advances
// the checkpoint. Valid only while the event mask has been constant over
// the span, which the hook protocol guarantees.
func (m *Monitor) accrueEligible(ev pebs.EventMask) {
	p := m.core.PMU()
	m.accrueEligibleAt(ev, p.True(cpu.CtrLoads), p.True(cpu.CtrStores))
}

// accrueEligibleAt is the shared tail of the eligibility accountants: it
// credits the span ending at the given load/store totals and advances the
// checkpoint to them.
func (m *Monitor) accrueEligibleAt(ev pebs.EventMask, curL, curS uint64) {
	var n uint64
	if ev.Has(pebs.SampleLoads) {
		n += curL - m.lastLoads
	}
	if ev.Has(pebs.SampleStores) {
		n += curS - m.lastStores
	}
	if n > 0 {
		m.engine.AddEligible(n)
	}
	m.lastLoads, m.lastStores = curL, curS
}

// RegisterRegion assigns an id to a named code region and labels it.
func (m *Monitor) RegisterRegion(name string) Region {
	m.regionNames = append(m.regionNames, name)
	id := Region(len(m.regionNames)) // 1-based; 0 means "end"
	m.labels.SetValue(trace.TypeRegion, int64(id), name)
	return id
}

// RegionName returns the name of a registered region.
func (m *Monitor) RegionName(r Region) string {
	if r < 1 || int(r) > len(m.regionNames) {
		return fmt.Sprintf("region_%d", r)
	}
	return m.regionNames[r-1]
}

// counterPairs renders a PMU snapshot as trace pairs following head, in one
// allocation of exactly the record's size. Only programmed counters are
// emitted: the records of a non-NUMA core carry exactly the historical pair
// set, and a NUMA-routed core appends the remote-DRAM event.
func (m *Monitor) counterPairs(snap [cpu.NumCounters]uint64, head ...trace.TypeValue) []trace.TypeValue {
	pmu := m.core.PMU()
	n := len(head)
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		if pmu.Programmed(c) {
			n++
		}
	}
	pairs := append(make([]trace.TypeValue, 0, n), head...)
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		if !pmu.Programmed(c) {
			continue
		}
		pairs = append(pairs, trace.TypeValue{
			Type:  trace.TypeCounterBase + uint32(c),
			Value: int64(snap[c]),
		})
	}
	return pairs
}

// emit appends a record to the in-memory trace.
func (m *Monitor) emit(pairs []trace.TypeValue) {
	m.records = append(m.records, trace.Record{
		TimeNs: m.core.NowNs(),
		Task:   m.task,
		Thread: m.thread,
		Pairs:  pairs,
	})
}

// Thread returns the 1-based thread id stamped on this monitor's records.
func (m *Monitor) Thread() int { return m.thread }

// Task returns the 1-based task id stamped on this monitor's records.
func (m *Monitor) Task() int { return m.task }

// EnterRegion records entry into an instrumented region, with a counter
// snapshot (folding needs counters at instance boundaries).
func (m *Monitor) EnterRegion(r Region) {
	m.regionStack = append(m.regionStack, r)
	if !m.enabled {
		return
	}
	m.emit(m.counterPairs(m.core.PMU().Snapshot(), trace.TypeValue{Type: trace.TypeRegion, Value: int64(r)}))
}

// ExitRegion records exit from the innermost region, which must be r.
func (m *Monitor) ExitRegion(r Region) {
	if len(m.regionStack) == 0 || m.regionStack[len(m.regionStack)-1] != r {
		panic(fmt.Sprintf("extrae: unbalanced ExitRegion(%d)", r))
	}
	m.regionStack = m.regionStack[:len(m.regionStack)-1]
	if !m.enabled {
		return
	}
	// Flush buffered samples so they precede the region-end record; drains
	// are charged to the core, slightly inflating the region like a real
	// PEBS interrupt would.
	m.engine.Flush()
	m.emit(m.counterPairs(m.core.PMU().Snapshot(), trace.TypeValue{Type: trace.TypeRegion, Value: 0}))
}

// PushFrame enters a call frame (for allocation/sample call stacks).
func (m *Monitor) PushFrame(ip uint64) {
	m.callStack.Push(ip)
	m.stackDirty = true
}

// PopFrame leaves the innermost call frame.
func (m *Monitor) PopFrame() {
	m.callStack.Pop()
	m.stackDirty = true
}

// stackID interns the current call stack lazily.
func (m *Monitor) stackID() uint32 {
	if m.stackDirty {
		m.curStackID = m.stacks.Intern(m.callStack.Snapshot())
		m.stackDirty = false
	}
	return m.curStackID
}

// Alloc performs an instrumented allocation attributed to the current call
// stack, like Extrae's malloc wrapper.
func (m *Monitor) Alloc(size uint64) (uint64, error) {
	return m.as.Alloc(size, m.stackID())
}

// Realloc performs an instrumented reallocation.
func (m *Monitor) Realloc(addr, size uint64) (uint64, error) {
	return m.as.Realloc(addr, size, m.stackID())
}

// Free performs an instrumented free.
func (m *Monitor) Free(addr uint64) error { return m.as.Free(addr) }

// BeginAllocGroup opens a manual allocation group (the paper's wrapping
// instrumentation around runs of small allocations).
func (m *Monitor) BeginAllocGroup(name string) error { return m.reg.BeginGroup(name) }

// EndAllocGroup closes the open group.
func (m *Monitor) EndAllocGroup() (*objects.Object, error) { return m.reg.EndGroup() }

// onAlloc is the address-space allocation hook.
func (m *Monitor) onAlloc(info prog.AllocInfo) {
	m.reg.OnAlloc(info)
	if !m.enabled {
		return
	}
	m.emit([]trace.TypeValue{
		{Type: trace.TypeAllocAddr, Value: int64(info.Addr)},
		{Type: trace.TypeAllocSize, Value: int64(info.Size)},
		{Type: trace.TypeAllocStack, Value: int64(info.StackID)},
	})
}

// onFree is the address-space free hook.
func (m *Monitor) onFree(info prog.AllocInfo) {
	m.reg.OnFree(info)
	if !m.enabled {
		return
	}
	m.emit([]trace.TypeValue{{Type: trace.TypeFreeAddr, Value: int64(info.Addr)}})
}

// onMemOp is the per-op reference hook: multiplex rotation, then PEBS.
func (m *Monitor) onMemOp(op cpu.MemOp) {
	if !m.enabled {
		return
	}
	now := m.core.NowNs()
	if m.cfg.MuxQuantumNs > 0 && now >= m.muxNext {
		for now >= m.muxNext {
			m.muxNext += m.cfg.MuxQuantumNs
		}
		if m.engine.Events().Has(pebs.SampleLoads) {
			m.engine.SetEvents(pebs.SampleStores)
		} else {
			m.engine.SetEvents(pebs.SampleLoads)
		}
	}
	if m.engine.Observe(op, now, m.stackID()) {
		// The op became a sample: capture the PMU at sample time so the
		// counters line up with the PEBS record when the buffer drains.
		m.recordSnapshotAndMaybeDrain()
	}
}

// recordSnapshotAndMaybeDrain attaches the sample-time PMU snapshot and
// drains the PEBS buffer as soon as it is full. Draining here — identically
// in the per-op and gated paths — keeps the drain stall at the same point
// of the instruction stream in both, which the equivalence tests require.
func (m *Monitor) recordSnapshotAndMaybeDrain() {
	m.pendingSnaps = append(m.pendingSnaps, m.core.PMU().Snapshot())
	if m.engine.Pending() >= m.engine.BufferSize() {
		m.engine.Flush()
	}
}

// onGatedMemOp is the countdown-gated hook: it runs only for operations
// whose class countdown fired (selected) or that crossed a multiplexing
// quantum boundary, and re-arms the core's gates before returning. The
// protocol reproduces the per-op path exactly: rotation is applied before
// the operation is evaluated, the boundary operation counts against the
// post-rotation mask, and the engine's inter-sample gaps are drawn in the
// same order.
func (m *Monitor) onGatedMemOp(op cpu.MemOp) {
	if !m.enabled {
		// Stop disarms the gates; a stray hook just stays disarmed.
		m.core.SetSampleGate(cpu.GateNever, cpu.GateNever, ^uint64(0))
		return
	}
	ev := m.engine.Events()
	// Sync the live countdowns the core decremented for masked-in classes.
	lg, sg, _ := m.core.SampleGates()
	if ev.Has(pebs.SampleLoads) {
		m.loadRem = lg
	}
	if ev.Has(pebs.SampleStores) {
		m.storeRem = sg
	}
	now := m.core.NowNs()
	rotated := false
	if m.cfg.MuxQuantumNs > 0 && now >= m.muxNext {
		// Ops strictly before this one were eligible under the old mask;
		// the boundary op itself is evaluated under the rotated mask, as
		// in the per-op path where rotation precedes the observation.
		m.accrueEligibleExcluding(ev, op)
		for now >= m.muxNext {
			m.muxNext += m.cfg.MuxQuantumNs
		}
		// Undo the core's decrement for the boundary op: under the per-op
		// path a class rotated out of the mask is not decremented.
		if op.Store {
			if ev.Has(pebs.SampleStores) {
				m.storeRem++
			}
		} else if ev.Has(pebs.SampleLoads) {
			m.loadRem++
		}
		if ev.Has(pebs.SampleLoads) {
			ev = pebs.SampleStores
		} else {
			ev = pebs.SampleLoads
		}
		m.engine.SetEvents(ev)
		rotated = true
	}
	// Decide whether this op samples under the (possibly rotated) mask.
	sampled := false
	if op.Store {
		if ev.Has(pebs.SampleStores) {
			if rotated {
				m.storeRem-- // boundary op counts under the new mask
			}
			sampled = m.storeRem == 0
		}
	} else if ev.Has(pebs.SampleLoads) {
		if rotated {
			m.loadRem--
		}
		sampled = m.loadRem == 0
	}
	if sampled {
		recorded, gap := m.engine.ObserveSampled(op, now, m.stackID())
		if op.Store {
			m.storeRem = gap
		} else {
			m.loadRem = gap
		}
		if recorded {
			m.recordSnapshotAndMaybeDrain()
		}
	}
	m.armGates()
}

// accrueEligibleExcluding is accrueEligible with the in-flight operation op
// excluded from the span (it belongs to the next, post-rotation span).
func (m *Monitor) accrueEligibleExcluding(ev pebs.EventMask, op cpu.MemOp) {
	p := m.core.PMU()
	curL, curS := p.True(cpu.CtrLoads), p.True(cpu.CtrStores)
	if op.Store {
		curS--
	} else {
		curL--
	}
	m.accrueEligibleAt(ev, curL, curS)
}

// onDrain receives the PEBS buffer: resolve objects, emit trace records.
func (m *Monitor) onDrain(samples []pebs.Sample) {
	if len(samples) != len(m.pendingSnaps) {
		panic(fmt.Sprintf("extrae: %d samples vs %d snapshots", len(samples), len(m.pendingSnaps)))
	}
	for i, s := range samples {
		m.reg.Record(s.Addr, s.Latency, s.Store, s.Source)
		store := int64(0)
		if s.Store {
			store = 1
		}
		pairs := m.counterPairs(m.pendingSnaps[i],
			trace.TypeValue{Type: trace.TypeSampleAddr, Value: int64(s.Addr)},
			trace.TypeValue{Type: trace.TypeSampleLatency, Value: int64(s.Latency)},
			trace.TypeValue{Type: trace.TypeSampleSource, Value: int64(s.Source)},
			trace.TypeValue{Type: trace.TypeSampleStore, Value: store},
			trace.TypeValue{Type: trace.TypeSampleIP, Value: int64(s.IP)},
			trace.TypeValue{Type: trace.TypeSampleStack, Value: int64(s.StackID)},
			trace.TypeValue{Type: trace.TypeSampleSize, Value: int64(s.Size)},
		)
		m.records = append(m.records, trace.Record{
			TimeNs: s.TimeNs, Task: m.task, Thread: m.thread, Pairs: pairs,
		})
	}
	m.pendingSnaps = m.pendingSnaps[:0]
	if m.cfg.DrainOverheadCycles > 0 {
		m.core.Stall(m.cfg.DrainOverheadCycles)
	}
}

// Records returns the trace accumulated so far (chronological: all records
// are emitted at the single simulated thread's clock).
func (m *Monitor) Records() []trace.Record { return m.records }
