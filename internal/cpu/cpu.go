// Package cpu models a simple in-order core executing a stream of typed
// operations (compute, branch, load, store) against a memhier.Hierarchy. It
// provides the two hardware facilities the paper's monitoring extensions
// rely on: a PMU with fixed and multiplexed programmable counters, and a
// per-memory-instruction hook through which the PEBS engine observes every
// memory operation with its address, latency and data source.
//
// The timing model is deliberately simple — compute operations retire at a
// fixed IPC and memory stalls are partially overlapped by a configurable
// factor — because the paper's analysis consumes counter *rates* and their
// relative changes across phases, not cycle-accurate timings.
package cpu

import (
	"fmt"

	"repro/internal/memhier"
)

// CounterID identifies one hardware event counter.
type CounterID int

// The modelled PMU events. Instructions and Cycles are fixed counters (always
// counting); the rest are programmable and subject to multiplexing.
const (
	CtrInstructions CounterID = iota
	CtrCycles
	CtrBranches
	CtrLoads
	CtrStores
	CtrL1DMiss
	CtrL2Miss
	CtrL3Miss
	// CtrRemoteDRAM counts loads and stores whose line fill was served by a
	// remote socket's memory node (the OFFCORE_RESPONSE remote-DRAM events
	// of the modelled Haswell parts). It is programmed only on cores whose
	// hierarchy is routed through a multi-node NUMA placement, so non-NUMA
	// stacks keep their historical counter set — and their exact trace
	// bytes.
	CtrRemoteDRAM
	NumCounters
)

// String returns the PAPI-style event name used in traces and reports.
func (c CounterID) String() string {
	switch c {
	case CtrInstructions:
		return "PAPI_TOT_INS"
	case CtrCycles:
		return "PAPI_TOT_CYC"
	case CtrBranches:
		return "PAPI_BR_INS"
	case CtrLoads:
		return "PAPI_LD_INS"
	case CtrStores:
		return "PAPI_SR_INS"
	case CtrL1DMiss:
		return "PAPI_L1_DCM"
	case CtrL2Miss:
		return "PAPI_L2_DCM"
	case CtrL3Miss:
		return "PAPI_L3_TCM"
	case CtrRemoteDRAM:
		return "REMOTE_DRAM"
	}
	return fmt.Sprintf("CounterID(%d)", int(c))
}

// fixed reports whether the counter is a fixed (always-on) counter.
func (c CounterID) fixed() bool { return c == CtrInstructions || c == CtrCycles }

// MemOp describes one executed memory instruction, as observed by the PEBS
// hook: the sampled fields of a PEBS record.
type MemOp struct {
	// IP is the instruction pointer of the memory instruction.
	IP uint64
	// Addr is the referenced virtual address.
	Addr uint64
	// Size is the access width in bytes.
	Size int
	// Store is true for stores, false for loads.
	Store bool
	// Latency is the access cost in cycles (PEBS "weight").
	Latency uint64
	// Source is the hierarchy level that served the data.
	Source memhier.DataSource
	// Cycle is the core cycle at which the op retired.
	Cycle uint64
}

// MemOpHook observes every retired memory operation.
type MemOpHook func(op MemOp)

// GatedMemOpHook observes only gated memory operations: those whose class
// countdown (see SetSampleGate) reached zero and those retiring at or past
// the hook cycle (a monitoring quantum boundary). The hook reads
// SampleGates to learn which gate (if any) fired before re-arming them.
// Between invocations the core runs memory operations without calling out,
// which is what makes the non-sampled path cheap.
type GatedMemOpHook func(op MemOp)

// GateNever is a sample-gate countdown that never fires in any realistic
// simulation (2^62 operations).
const GateNever = uint64(1) << 62

// Config parameterizes a Core.
type Config struct {
	// FreqHz is the nominal clock used to convert cycles to wall time.
	// The paper's IPC arithmetic (1500 MIPS ≈ 0.6 IPC) assumes the nominal
	// frequency, so the default matches Jureca's 2.5 GHz Haswell parts.
	FreqHz float64
	// ComputeIPC is the retirement rate of non-memory instructions.
	ComputeIPC float64
	// MemOverlap in [0,1) is the fraction of a memory access latency hidden
	// by out-of-order overlap and MLP; 0 serializes every access.
	MemOverlap float64
	// PerOpStreams degrades the batched line-run issue (IssueRun,
	// IssueRuns) to plain per-operation issue. This is the
	// reference path: equivalence tests run workloads both ways and require
	// identical traces, counters and cache statistics.
	PerOpStreams bool
}

// DefaultConfig returns the Haswell-like defaults (2.5 GHz, IPC 2 for
// compute, 60% of memory latency hidden).
func DefaultConfig() Config {
	return Config{FreqHz: 2.5e9, ComputeIPC: 2, MemOverlap: 0.6}
}

// Core is a simulated hardware thread. Not safe for concurrent use; each
// simulated thread owns a Core.
type Core struct {
	cfg     Config
	hier    *memhier.Hierarchy
	pmu     *PMU
	cycles  uint64
	memHook MemOpHook
	// fracCycles accumulates sub-cycle compute time so that short compute
	// bursts at IPC > 1 do not round to zero.
	fracCycles float64

	// Countdown-gated monitoring. The monitor arms loadGate/storeGate with
	// the operations remaining until the next sample of each class and
	// hookCycle with the next quantum boundary; the core decrements the
	// gates inline and invokes gatedHook only when one fires. With no
	// monitor (or a disabled one) the gates sit at GateNever and the whole
	// mechanism is two decrements and two compares per op.
	gatedHook GatedMemOpHook
	loadGate  uint64
	storeGate uint64
	hookCycle uint64

	// memCyc and memCycDep are the per-data-source stall cycles charged to
	// an independent (overlapped) and a dependency-chained access,
	// precomputed from the hierarchy latencies and MemOverlap so the per-op
	// path performs no floating-point work. maxCyc/maxCycDep are the
	// per-table maxima — the worst case is NOT always DRAM: overlap scales
	// every source but L1 down, so at high MemOverlap the unoverlapped L1
	// cost can exceed the overlapped DRAM cost. The batch splitter's
	// hook-cycle bound relies on these being true per-op maxima.
	memCyc    [memhier.NumSources]uint64
	memCycDep [memhier.NumSources]uint64
	maxCyc    uint64
	maxCycDep uint64
}

// New creates a core bound to a memory hierarchy.
func New(cfg Config, hier *memhier.Hierarchy) (*Core, error) {
	if cfg.FreqHz <= 0 {
		return nil, fmt.Errorf("cpu: FreqHz must be positive")
	}
	if cfg.ComputeIPC <= 0 {
		return nil, fmt.Errorf("cpu: ComputeIPC must be positive")
	}
	if cfg.MemOverlap < 0 || cfg.MemOverlap >= 1 {
		return nil, fmt.Errorf("cpu: MemOverlap must be in [0,1)")
	}
	if hier == nil {
		return nil, fmt.Errorf("cpu: nil memory hierarchy")
	}
	c := &Core{
		cfg:       cfg,
		hier:      hier,
		pmu:       NewPMU(),
		loadGate:  GateNever,
		storeGate: GateNever,
		hookCycle: ^uint64(0),
	}
	if hier.RemoteDRAMPossible() {
		// The hierarchy can serve remote-socket fills: program the
		// remote-DRAM event so the local/remote split reaches the PMU,
		// the trace and the folded counters.
		if err := c.pmu.EnableRemoteDRAM(); err != nil {
			return nil, err
		}
	}
	for s := memhier.DataSource(0); s < memhier.NumSources; s++ {
		lat := hier.SourceLatency(s)
		// Dependent accesses (and L1 hits) stall for the full latency;
		// deeper independent accesses are partially hidden by overlap.
		full := lat
		if full == 0 {
			full = 1
		}
		c.memCycDep[s] = full
		ov := lat
		if s != memhier.SrcL1 {
			ov = uint64(float64(lat) * (1 - cfg.MemOverlap))
		}
		if ov == 0 {
			ov = 1
		}
		c.memCyc[s] = ov
	}
	for s := range c.memCyc {
		c.maxCyc = max(c.maxCyc, c.memCyc[s])
		c.maxCycDep = max(c.maxCycDep, c.memCycDep[s])
	}
	return c, nil
}

// PMU returns the core's performance monitoring unit.
func (c *Core) PMU() *PMU { return c.pmu }

// Hierarchy returns the attached memory hierarchy.
func (c *Core) Hierarchy() *memhier.Hierarchy { return c.hier }

// SetMemHook installs the per-memory-op observer (the PEBS tap). When set
// it is invoked for every retired memory operation and the sample gates are
// ignored; this is the straightforward reference path.
func (c *Core) SetMemHook(h MemOpHook) { c.memHook = h }

// SetGatedMemHook installs the countdown-gated observer. The hook only runs
// when a sample gate fires or the hook cycle passes (see SetSampleGate);
// the monitor re-arms the gates from inside the hook.
func (c *Core) SetGatedMemHook(h GatedMemOpHook) { c.gatedHook = h }

// SetSampleGate arms the gating state: loadOps (storeOps) is the number of
// retired loads (stores) until the gated hook fires with selected=true —
// pass GateNever for classes that are not sampled — and hookCycle forces a
// hook (selected=false unless a gate fires on the same op) at the first
// memory operation retiring at or after that cycle.
func (c *Core) SetSampleGate(loadOps, storeOps, hookCycle uint64) {
	c.loadGate = loadOps
	c.storeGate = storeOps
	c.hookCycle = hookCycle
}

// SampleGates returns the live countdown state (ops remaining per class and
// the armed hook cycle).
func (c *Core) SampleGates() (loadOps, storeOps, hookCycle uint64) {
	return c.loadGate, c.storeGate, c.hookCycle
}

// Cycles returns the elapsed core cycles.
func (c *Core) Cycles() uint64 { return c.cycles }

// NowNs returns the simulated wall-clock time in nanoseconds. It is only
// evaluated at monitoring events (samples, region boundaries, quantum
// hooks), never on the per-op path.
func (c *Core) NowNs() uint64 {
	return c.nsAt(c.cycles)
}

func (c *Core) nsAt(cycles uint64) uint64 {
	return uint64(float64(cycles) / c.cfg.FreqHz * 1e9)
}

// CycleForNs returns the smallest cycle count whose NowNs reaches ns. The
// monitor uses it to translate a quantum boundary into the integer cycle
// compare the per-op gate performs.
func (c *Core) CycleForNs(ns uint64) uint64 {
	est := uint64(float64(ns) / 1e9 * c.cfg.FreqHz)
	for est > 0 && c.nsAt(est-1) >= ns {
		est--
	}
	for c.nsAt(est) < ns {
		est++
	}
	return est
}

// FreqHz returns the nominal frequency.
func (c *Core) FreqHz() float64 { return c.cfg.FreqHz }

// advance moves the clock and informs the PMU.
func (c *Core) advance(cycles uint64) {
	c.cycles += cycles
	c.pmu.tick(cycles)
}

// Compute retires n non-memory, non-branch instructions.
func (c *Core) Compute(n uint64) {
	if n == 0 {
		return
	}
	c.pmu.count(CtrInstructions, n)
	c.fracCycles += float64(n) / c.cfg.ComputeIPC
	whole := uint64(c.fracCycles)
	if whole > 0 {
		c.fracCycles -= float64(whole)
		c.pmu.count(CtrCycles, whole)
		c.advance(whole)
	}
}

// Branch retires one branch instruction.
func (c *Core) Branch() {
	c.pmu.count(CtrInstructions, 1)
	c.pmu.count(CtrBranches, 1)
	c.fracCycles += 1 / c.cfg.ComputeIPC
	whole := uint64(c.fracCycles)
	if whole > 0 {
		c.fracCycles -= float64(whole)
		c.pmu.count(CtrCycles, whole)
		c.advance(whole)
	}
}

// memAccess implements Load, LoadDep and Store. dependent marks an access
// whose address or value feeds the next operation (a loop-carried
// dependency), which cannot be overlapped and stalls for the full latency.
// The per-op cost is one hierarchy access, one fused PMU update and two
// gate decrements; the monitor hook runs only when a gate fires.
//
//repro:noalloc
func (c *Core) memAccess(ip, addr uint64, size int, store, dependent bool) memhier.AccessResult {
	res := c.hier.Access(addr, size, store)
	// Effective stall, precomputed per source: L1 hits cost their full
	// (pipelined-small) latency; deeper sources are partially overlapped —
	// unless the access is part of a dependency chain, which serializes it.
	var cyc uint64
	if dependent {
		cyc = c.memCycDep[res.Source]
	} else {
		cyc = c.memCyc[res.Source]
	}
	c.pmu.countMem(store, res.Source, cyc)
	c.cycles += cyc
	c.pmu.tick(cyc)
	if c.memHook != nil {
		c.memHook(MemOp{
			IP: ip, Addr: addr, Size: size, Store: store,
			Latency: res.Latency, Source: res.Source, Cycle: c.cycles,
		})
		return res
	}
	var fire bool
	if store {
		c.storeGate--
		fire = c.storeGate == 0
	} else {
		c.loadGate--
		fire = c.loadGate == 0
	}
	if fire || c.cycles >= c.hookCycle {
		c.gateFired(ip, addr, size, store, res, fire)
	}
	return res
}

// gateFired dispatches a gated hook invocation (kept out of memAccess so
// the common path stays small enough to stay fast).
func (c *Core) gateFired(ip, addr uint64, size int, store bool, res memhier.AccessResult, fire bool) {
	if c.gatedHook == nil {
		// Nothing armed the gates on purpose: disarm so an (astronomically
		// unlikely) wrap cannot fire again soon.
		if fire {
			if store {
				c.storeGate = GateNever
			} else {
				c.loadGate = GateNever
			}
		}
		return
	}
	c.gatedHook(MemOp{
		IP: ip, Addr: addr, Size: size, Store: store,
		Latency: res.Latency, Source: res.Source, Cycle: c.cycles,
	})
}

// Load retires one load instruction at ip referencing addr.
func (c *Core) Load(ip, addr uint64, size int) memhier.AccessResult {
	return c.memAccess(ip, addr, size, false, false)
}

// LoadDep retires a load on a loop-carried dependency chain: its full
// latency stalls the pipeline (no overlap), modelling the serialized
// neighbour reads of a Gauss–Seidel sweep versus the independent gathers of
// SpMV — the reason the paper measures lower bandwidth in SYMGS than SpMV.
func (c *Core) LoadDep(ip, addr uint64, size int) memhier.AccessResult {
	return c.memAccess(ip, addr, size, false, true)
}

// Store retires one store instruction at ip referencing addr.
func (c *Core) Store(ip, addr uint64, size int) memhier.AccessResult {
	return c.memAccess(ip, addr, size, true, false)
}

// LineRun describes one batch of memory instructions at a single IP
// sweeping base, base+stride, ..., base+(count-1)*stride — the issue
// granularity of the streaming kernels (the STREAM triad arrays, SpMV
// value/column rows, the dense vector updates). Workloads emit LineRun
// batches; the core resolves each distinct cache line once through the
// hierarchy's run-probe API and charges the remaining same-line accesses
// in bulk, splitting a run wherever a sample gate or monitoring quantum
// must observe an operation precisely.
type LineRun struct {
	// IP is the instruction pointer shared by every access of the run.
	IP uint64
	// Base is the first accessed address.
	Base uint64
	// Stride is the address increment between accesses, in bytes.
	Stride int
	// Size is the access width in bytes.
	Size int
	// Count is the number of accesses.
	Count int
	// Store selects store semantics (write-back, write-allocate).
	Store bool
	// Dep marks a dependency-chained run: every access stalls for its full
	// latency (LoadDep semantics).
	Dep bool
}

// IssueRun retires one line run. It is semantically identical to Count
// individual Load/LoadDep/Store calls — same counters, cache state, stall
// cycles and samples.
func (c *Core) IssueRun(r LineRun) {
	c.stream(r.IP, r.Base, r.Stride, r.Size, r.Count, r.Store, r.Dep)
}

// IssueRuns retires a batch of line runs in order. Workloads use it to
// hand a whole inner-loop body (e.g. the triad's two load sweeps and one
// store sweep over a line) to the simulator in one call.
func (c *Core) IssueRuns(runs []LineRun) {
	for _, r := range runs {
		c.IssueRun(r)
	}
}

// stream is the line-run issue layer. The batched path bounds, up front,
// how many operations can retire without a monitoring event, issues that
// many through one memhier.AccessRun call (one line-resolving probe per
// distinct line, bulk L1 charges for the rest), and accounts the whole
// batch with a single fused PMU delta and a single clock advance. Any
// operation that may fire a sample gate or cross the hook cycle takes the
// precise per-op path, so sampling decisions, PEBS gap draws and monitor
// hooks happen on exactly the operations per-op issue would pick.
//
//repro:noalloc
func (c *Core) stream(ip, base uint64, stride, size, n int, store, dependent bool) {
	if n <= 0 {
		return
	}
	// The batched path requires: batched issue enabled, no per-op observer,
	// a PMU whose bulk accounting is exact, and a forward stride (the
	// kernels' element sweeps are all ascending).
	if c.cfg.PerOpStreams || c.memHook != nil || !c.pmu.bulkOK() || stride <= 0 {
		addr := base
		for i := 0; i < n; i++ {
			c.memAccess(ip, addr, size, store, dependent)
			addr += uint64(stride)
		}
		return
	}
	cycTab := &c.memCyc
	maxCyc := c.maxCyc
	if dependent {
		cycTab = &c.memCycDep
		maxCyc = c.maxCycDep
	}
	addr := base
	rem := uint64(n)
	for rem > 0 {
		// Batch size: every op before the next class-gate firing (the op on
		// which the countdown reaches zero must take the per-op path) ...
		k := rem
		gate := c.loadGate
		if store {
			gate = c.storeGate
		}
		if g := gate - 1; g < k {
			// gate == 0 wraps to 2^64-1 and imposes no bound, exactly like
			// the per-op path where decrementing a zero gate never fires.
			k = g
		}
		// ... and every op that cannot reach the hook cycle even at
		// worst-case cost. The bound re-tightens each iteration as the
		// clock advances, converging on per-op issue at the boundary.
		if c.hookCycle != ^uint64(0) {
			if c.cycles >= c.hookCycle {
				k = 0
			} else if safe := (c.hookCycle - c.cycles - 1) / maxCyc; safe < k {
				k = safe
			}
		}
		if k == 0 {
			// The next op may fire a gate or cross the hook cycle: precise
			// per-op path (the monitor hook re-arms the gates inside it).
			c.memAccess(ip, addr, size, store, dependent)
			addr += uint64(stride)
			rem--
			continue
		}
		var rr memhier.RunResult
		c.hier.AccessRun(addr, uint64(stride), k, store, &rr)
		cyc := rr.Bulk * cycTab[memhier.SrcL1]
		for s, lines := range rr.Lines {
			cyc += lines * cycTab[s]
		}
		c.pmu.countMemRun(store, k, &rr, cyc)
		c.cycles += cyc
		if store {
			c.storeGate -= k
		} else {
			c.loadGate -= k
		}
		addr += k * uint64(stride)
		rem -= k
	}
}

// Stall advances the clock by the given cycles without retiring
// instructions. The monitoring layer uses it to charge sampling overhead
// (PEBS buffer drains) to the simulated application, making the paper's
// low-overhead claim measurable.
func (c *Core) Stall(cycles uint64) {
	if cycles == 0 {
		return
	}
	c.pmu.count(CtrCycles, cycles)
	c.advance(cycles)
}
