package cpu

import (
	"fmt"

	"repro/internal/memhier"
)

// PMU models a performance monitoring unit with two fixed counters
// (instructions, cycles) and a limited set of programmable counter slots.
// When more programmable events are requested than slots exist, the PMU
// time-multiplexes event *groups* on a cycle quantum, and Read returns
// linearly scaled estimates — the same mechanism (and the same estimation
// error) Extrae inherits from PAPI multiplexing. The True method exposes
// ground-truth counts so tests and ablations can quantify multiplexing
// error, something impossible on real hardware.
type PMU struct {
	raw     [NumCounters]uint64 // ground-truth event counts
	visible [NumCounters]uint64 // counts while the event's group was active
	active  [NumCounters]uint64 // cycles during which the event was counting
	total   uint64              // total cycles observed by the PMU

	groups  [][]CounterID
	slot    int              // index of the active group
	quantum uint64           // cycles per multiplexing slot (0 = no multiplexing)
	slotAge uint64           // cycles consumed in the current slot
	inGroup [NumCounters]int // group index per counter, -1 if unprogrammed

	// everMux is set once a multiplexed configuration has been programmed.
	// While false (the default single-group setup), every programmed
	// counter is always counting, so the per-op hot path can skip the
	// visible/active bookkeeping entirely: Read returns raw, tick is a
	// single addition, and countMem/countMemRun touch only raw counters.
	// Program folds the skipped bookkeeping forward before multiplexing
	// starts, so a later mux phase observes the same state as if the slow
	// path had run from the beginning.
	everMux bool
}

// NewPMU creates a PMU with all programmable events in one always-on group
// (no multiplexing) — the configuration used when hardware has enough
// slots. CtrRemoteDRAM is left unprogrammed: it only exists on NUMA-routed
// cores, which enable it via EnableRemoteDRAM, and the monitoring layer
// emits only programmed counters, so the historical counter set (and trace
// byte stream) is preserved everywhere else.
func NewPMU() *PMU {
	p := &PMU{}
	// Ignore the error: the default single-group config is always valid.
	if err := p.Program([][]CounterID{defaultGroup(false)}, 0); err != nil {
		panic(err)
	}
	return p
}

// defaultGroup returns the always-on programmable counter set, with or
// without the NUMA remote-DRAM event.
func defaultGroup(remote bool) []CounterID {
	all := make([]CounterID, 0, NumCounters)
	for c := CounterID(0); c < NumCounters; c++ {
		if c.fixed() || (c == CtrRemoteDRAM && !remote) {
			continue
		}
		all = append(all, c)
	}
	return all
}

// EnableRemoteDRAM reprograms the default single always-on group with
// CtrRemoteDRAM included. Cores attached to a NUMA-routed hierarchy call
// it at construction, before any multiplexed programming.
func (p *PMU) EnableRemoteDRAM() error {
	return p.Program([][]CounterID{defaultGroup(true)}, 0)
}

// Programmed reports whether counter c is currently programmed (fixed
// counters always are). The monitoring layer emits trace pairs and labels
// only for programmed counters.
func (p *PMU) Programmed(c CounterID) bool {
	if c < 0 || c >= NumCounters {
		return false
	}
	return c.fixed() || p.inGroup[c] != -1
}

// Program installs multiplexing groups. quantum is the number of cycles each
// group counts before rotating; it must be positive when more than one group
// is given. Fixed counters may not appear in groups (they always count).
func (p *PMU) Program(groups [][]CounterID, quantum uint64) error {
	if len(groups) == 0 {
		return fmt.Errorf("cpu: PMU needs at least one counter group")
	}
	if len(groups) > 1 && quantum == 0 {
		return fmt.Errorf("cpu: multiplexing %d groups needs a positive quantum", len(groups))
	}
	// Validate into a fresh map first: on error the old programming must
	// survive untouched (p.inGroup is not modified until validation passes —
	// the fast-path catch-up below also still needs the old assignments).
	var inGroup [NumCounters]int
	for i := range inGroup {
		inGroup[i] = -1
	}
	for gi, g := range groups {
		for _, c := range g {
			if c < 0 || c >= NumCounters {
				return fmt.Errorf("cpu: invalid counter %d in group %d", c, gi)
			}
			if c.fixed() {
				return fmt.Errorf("cpu: fixed counter %v cannot be multiplexed", c)
			}
			if inGroup[c] != -1 {
				return fmt.Errorf("cpu: counter %v in multiple groups", c)
			}
			inGroup[c] = gi
		}
	}
	if !p.everMux {
		// Catch up the bookkeeping the fast path skipped: under the
		// single-group regime every programmed counter was counting the
		// whole time.
		for c := CounterID(0); c < NumCounters; c++ {
			if !c.fixed() && p.inGroup[c] != -1 {
				p.visible[c] = p.raw[c]
				p.active[c] = p.total
			}
		}
	}
	p.inGroup = inGroup
	p.groups = groups
	p.quantum = quantum
	p.slot = 0
	p.slotAge = 0
	if len(groups) > 1 && quantum > 0 {
		p.everMux = true
	}
	return nil
}

// counting reports whether counter c is currently accumulating.
func (p *PMU) counting(c CounterID) bool {
	if c.fixed() {
		return true
	}
	g := p.inGroup[c]
	return g == p.slot
}

// count records n occurrences of event c.
func (p *PMU) count(c CounterID, n uint64) {
	p.raw[c] += n
	if p.counting(c) {
		p.visible[c] += n
	}
}

// countMem records all counter updates of one retired memory operation in a
// single call: the instruction, the load/store event, the miss events
// implied by the data source, and the cycle cost. On the (default)
// never-multiplexed configuration this is a handful of plain additions.
//
//repro:noalloc
func (p *PMU) countMem(store bool, src memhier.DataSource, cycles uint64) {
	if !p.everMux {
		p.raw[CtrInstructions]++
		p.raw[CtrCycles] += cycles
		if store {
			p.raw[CtrStores]++
		} else {
			p.raw[CtrLoads]++
		}
		switch src {
		case memhier.SrcL2:
			p.raw[CtrL1DMiss]++
		case memhier.SrcL3:
			p.raw[CtrL1DMiss]++
			p.raw[CtrL2Miss]++
		case memhier.SrcDRAM:
			p.raw[CtrL1DMiss]++
			p.raw[CtrL2Miss]++
			p.raw[CtrL3Miss]++
		case memhier.SrcDRAMRemote:
			p.raw[CtrL1DMiss]++
			p.raw[CtrL2Miss]++
			p.raw[CtrL3Miss]++
			p.raw[CtrRemoteDRAM]++
		}
		return
	}
	p.count(CtrInstructions, 1)
	p.count(CtrCycles, cycles)
	if store {
		p.count(CtrStores, 1)
	} else {
		p.count(CtrLoads, 1)
	}
	switch src {
	case memhier.SrcL2:
		p.count(CtrL1DMiss, 1)
	case memhier.SrcL3:
		p.count(CtrL1DMiss, 1)
		p.count(CtrL2Miss, 1)
	case memhier.SrcDRAM:
		p.count(CtrL1DMiss, 1)
		p.count(CtrL2Miss, 1)
		p.count(CtrL3Miss, 1)
	case memhier.SrcDRAMRemote:
		p.count(CtrL1DMiss, 1)
		p.count(CtrL2Miss, 1)
		p.count(CtrL3Miss, 1)
		p.count(CtrRemoteDRAM, 1)
	}
}

// countMemRun records one batched line run: n same-class memory operations
// of which rr.Lines were line-resolving probes (each carrying the miss
// events its data source implies) and rr.Bulk were same-line L1 hits,
// costing cycles in total. It bypasses the visible/active bookkeeping, so
// it is only exact while no multiplexing has ever been programmed
// (bulkOK); Core.stream degrades to per-op issue otherwise.
//
//repro:noalloc
func (p *PMU) countMemRun(store bool, n uint64, rr *memhier.RunResult, cycles uint64) {
	p.raw[CtrInstructions] += n
	p.raw[CtrCycles] += cycles
	if store {
		p.raw[CtrStores] += n
	} else {
		p.raw[CtrLoads] += n
	}
	l2 := rr.Lines[memhier.SrcL2]
	l3 := rr.Lines[memhier.SrcL3]
	dr := rr.Lines[memhier.SrcDRAM]
	rem := rr.Lines[memhier.SrcDRAMRemote]
	p.raw[CtrL1DMiss] += l2 + l3 + dr + rem
	p.raw[CtrL2Miss] += l3 + dr + rem
	p.raw[CtrL3Miss] += dr + rem
	p.raw[CtrRemoteDRAM] += rem
	p.total += cycles
}

// bulkOK reports whether bulk (non-per-op) accounting is exact: true until
// a multiplexed configuration is programmed.
func (p *PMU) bulkOK() bool { return !p.everMux }

// tick advances the PMU clock by the given cycles, rotating multiplexing
// slots as quanta expire and charging active time to counting events.
func (p *PMU) tick(cycles uint64) {
	if !p.everMux {
		p.total += cycles
		return
	}
	for cycles > 0 {
		step := cycles
		if p.quantum > 0 && len(p.groups) > 1 {
			remain := p.quantum - p.slotAge
			if step > remain {
				step = remain
			}
		}
		p.total += step
		for c := CounterID(0); c < NumCounters; c++ {
			if p.counting(c) {
				p.active[c] += step
			}
		}
		cycles -= step
		if p.quantum > 0 && len(p.groups) > 1 {
			p.slotAge += step
			if p.slotAge >= p.quantum {
				p.slotAge = 0
				p.slot = (p.slot + 1) % len(p.groups)
			}
		}
	}
}

// True returns the ground-truth count of event c (unavailable on real
// hardware under multiplexing; exposed for validation).
func (p *PMU) True(c CounterID) uint64 { return p.raw[c] }

// Read returns the PMU's estimate of event c: the visible count scaled by
// total/active time, which is exact without multiplexing and a linear
// extrapolation with it.
func (p *PMU) Read(c CounterID) uint64 {
	if c.fixed() {
		return p.raw[c]
	}
	if p.inGroup[c] == -1 {
		return 0 // unprogrammed event
	}
	if !p.everMux {
		// Never multiplexed: every programmed counter counted all along.
		return p.raw[c]
	}
	if p.active[c] == 0 {
		return 0
	}
	if p.active[c] == p.total {
		return p.visible[c]
	}
	return uint64(float64(p.visible[c]) * float64(p.total) / float64(p.active[c]))
}

// Snapshot reads all counters at once (estimates under multiplexing).
func (p *PMU) Snapshot() [NumCounters]uint64 {
	var s [NumCounters]uint64
	for c := CounterID(0); c < NumCounters; c++ {
		s[c] = p.Read(c)
	}
	return s
}

// TrueSnapshot reads ground-truth values of all counters.
func (p *PMU) TrueSnapshot() [NumCounters]uint64 { return p.raw }
