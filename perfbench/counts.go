package main

import (
	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/folding"
	"repro/internal/memhier"
	"repro/internal/scenario"
)

// levelCount is one cache level's demand lookups and misses.
type levelCount struct{ accesses, misses uint64 }

// layerCounts are exact simulated counts, summed over the simulated threads
// of every job in a pass. They repeat exactly for the same code and inputs;
// a speed-only change must leave them identical.
type layerCounts struct {
	instructions, cycles   uint64
	l1d, l2, l3            levelCount
	dramFills, remoteFills uint64
	prefetches             uint64
	eligible, recorded     uint64
	drains, records        uint64
	instances, samples     uint64
	phases                 uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.instructions += o.instructions
	c.cycles += o.cycles
	for _, p := range [][2]*levelCount{{&c.l1d, &o.l1d}, {&c.l2, &o.l2}, {&c.l3, &o.l3}} {
		p[0].accesses += p[1].accesses
		p[0].misses += p[1].misses
	}
	c.dramFills += o.dramFills
	c.remoteFills += o.remoteFills
	c.prefetches += o.prefetches
	c.eligible += o.eligible
	c.recorded += o.recorded
	c.drains += o.drains
	c.records += o.records
	c.instances += o.instances
	c.samples += o.samples
	c.phases += o.phases
}

// threadCounts reads one simulated thread's counts from the cpu, memhier,
// pebs and extrae accessors and its folded analysis (nil: not folded).
func threadCounts(c *cpu.Core, hier *memhier.Hierarchy, mon *extrae.Monitor, folded *folding.Folded) layerCounts {
	pmu := c.PMU().TrueSnapshot()
	eng := mon.Engine().Stats()
	out := layerCounts{
		instructions: pmu[cpu.CtrInstructions],
		cycles:       pmu[cpu.CtrCycles],
		dramFills:    hier.DRAMAccesses(),
		remoteFills:  hier.RemoteDRAMAccesses(),
		eligible:     eng.Eligible,
		recorded:     eng.Recorded,
		drains:       eng.Drains,
		records:      uint64(len(mon.Records())),
	}
	for i, lc := range []*levelCount{&out.l1d, &out.l2, &out.l3} {
		if i < hier.Levels() {
			st := hier.LevelStats(i)
			lc.accesses, lc.misses = st.Accesses, st.Misses
		}
	}
	for i := 0; i < hier.Levels(); i++ {
		out.prefetches += hier.LevelStats(i).Prefetches
	}
	if folded != nil {
		out.instances = uint64(folded.InstancesUsed)
		out.samples = uint64(len(folded.Mem))
		out.phases = uint64(len(folded.Phases))
	}
	return out
}

// metricsCounts sums the same counts from a scenario's canonical metrics
// (a sweep point or a served job).
func metricsCounts(m *scenario.Metrics) layerCounts {
	var out layerCounts
	for _, t := range m.PerThread {
		tc := layerCounts{
			instructions: t.Instructions,
			cycles:       t.Cycles,
			dramFills:    t.DRAMFills,
			eligible:     t.SamplesEligible,
			recorded:     t.SamplesRecorded,
			drains:       t.SampleDrains,
			records:      uint64(t.TraceRecordCount),
			instances:    uint64(t.InstancesUsed),
			samples:      uint64(t.FoldedSamples),
			phases:       uint64(len(t.Phases)),
		}
		if t.RemoteDRAMFills != nil {
			tc.remoteFills = *t.RemoteDRAMFills
		}
		for i, lc := range []*levelCount{&tc.l1d, &tc.l2, &tc.l3} {
			if i < len(t.Levels) {
				lc.accesses, lc.misses = t.Levels[i].Accesses, t.Levels[i].Misses
			}
		}
		for _, l := range t.Levels {
			tc.prefetches += l.Prefetches
		}
		out.add(tc)
	}
	return out
}

// set stores the counts and their ratios as per-layer metrics.
func (c layerCounts) set(m map[string]float64) {
	f := func(v uint64) float64 { return float64(v) }
	m["core.instructions"] = f(c.instructions)
	m["core.cycles"] = f(c.cycles)
	m["memhier.l1d_accesses"] = f(c.l1d.accesses)
	m["memhier.l1d_miss_ratio"] = ratio(f(c.l1d.misses), f(c.l1d.accesses))
	m["memhier.l2_miss_ratio"] = ratio(f(c.l2.misses), f(c.l2.accesses))
	m["memhier.l3_miss_ratio"] = ratio(f(c.l3.misses), f(c.l3.accesses))
	m["memhier.dram_fills"] = f(c.dramFills)
	m["memhier.prefetches"] = f(c.prefetches)
	m["numa.remote_fills"] = f(c.remoteFills)
	m["numa.remote_ratio"] = ratio(f(c.remoteFills), f(c.dramFills))
	m["pebs.eligible"] = f(c.eligible)
	m["pebs.recorded"] = f(c.recorded)
	m["pebs.drains"] = f(c.drains)
	m["pebs.recorded_ratio"] = ratio(f(c.recorded), f(c.eligible))
	m["extrae.records"] = f(c.records)
	m["folding.instances"] = f(c.instances)
	m["folding.samples"] = f(c.samples)
	m["folding.phases"] = f(c.phases)
}
