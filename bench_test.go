// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see EXPERIMENTS.md for the index):
//
//	BenchmarkFig1aCodeLineTimeline — Figure 1 top panel
//	BenchmarkFig1bAddressTimeline  — Figure 1 middle panel
//	BenchmarkFig1cCounterTimeline  — Figure 1 bottom panel
//	BenchmarkBandwidthByRegion     — in-text bandwidth table (a1/a2/B)
//	BenchmarkObjectAccounting      — in-text object sizes (617/89 MB ratio)
//	BenchmarkGroupingResolution    — preliminary-analysis experiment
//	BenchmarkMultiplexing          — single-run load+store capture
//
// plus ablation benches over the design choices called out in DESIGN.md and
// microbenchmarks of the substrates. Custom metrics carry the reproduced
// numbers (units suffixed per metric); the paper's absolute Jureca values
// are not expected to match — the shape criteria are listed in
// EXPERIMENTS.md and asserted in the integration tests.
package repro_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/folding"
	"repro/internal/hpcg"
	"repro/internal/memhier"
	"repro/internal/numa"
	"repro/internal/pebs"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchConfig is the deterministic monitoring setup used by the harness.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = 400
	cfg.Monitor.PEBS.Randomize = false
	cfg.Monitor.PEBS.LatencyThreshold = 0
	return cfg
}

// benchParams is the scaled HPCG problem used by the figure benches (the
// paper used 104³ on real hardware; the fast-pathed simulator defaults to
// 32³ with the paper's 4 multigrid levels). REPRO_BENCH_NX overrides the
// box dimension — e.g. REPRO_BENCH_NX=16 reproduces the historical scale
// for benchstat comparisons, REPRO_BENCH_NX=104 runs paper scale.
func benchParams() hpcg.Params {
	nx := 32
	if s := os.Getenv("REPRO_BENCH_NX"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			nx = v
		}
	}
	// Paper-style 4-level multigrid at 32³ and above; the historical 16³
	// scale keeps its original 2 levels so benchstat series stay
	// comparable. REPRO_BENCH_MG overrides.
	levels := 4
	if nx < 32 {
		levels = 2
	}
	if s := os.Getenv("REPRO_BENCH_MG"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			levels = v
		}
	}
	for levels > 1 && nx%(1<<(levels-1)) != 0 {
		levels--
	}
	return hpcg.Params{NX: nx, NY: nx, NZ: nx, MGLevels: levels, MaxIters: 3}
}

func runHPCG(b *testing.B, cfg core.Config, params hpcg.Params) *core.HPCGRun {
	b.Helper()
	run, err := core.RunHPCG(cfg, params)
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkFig1aCodeLineTimeline regenerates the top panel of Figure 1:
// the folded source-code position over normalized time, whose phase
// sequence is SYMGS, SpMV, MG, SYMGS, SpMV (A B C D E).
func BenchmarkFig1aCodeLineTimeline(b *testing.B) {
	var phases, letters int
	for i := 0; i < b.N; i++ {
		run := runHPCG(b, benchConfig(), benchParams())
		if err := run.Figure1().RenderCodeLines(io.Discard); err != nil {
			b.Fatal(err)
		}
		phases = len(run.Folded.Phases)
		seen := map[byte]bool{}
		for _, pp := range run.Paper {
			if pp.Label != "-" {
				seen[pp.Label[0]|0x20] = true
			}
		}
		letters = len(seen)
	}
	b.ReportMetric(float64(phases), "phases")
	b.ReportMetric(float64(letters), "paper-letters")
}

// BenchmarkFig1bAddressTimeline regenerates the middle panel: folded
// addresses with load/store distinction and object annotation. Metrics:
// folded samples, and stores observed in the matrix (read-only) region —
// the paper's key observation is that this is zero.
func BenchmarkFig1bAddressTimeline(b *testing.B) {
	var samples, matrixStores, matrixLoads uint64
	for i := 0; i < b.N; i++ {
		run := runHPCG(b, benchConfig(), benchParams())
		if err := run.Figure1().RenderAddresses(io.Discard); err != nil {
			b.Fatal(err)
		}
		samples = uint64(len(run.Folded.Mem))
		if m := run.MatrixGroup(); m != nil {
			matrixStores = m.Stores
			matrixLoads = m.Loads
		}
	}
	b.ReportMetric(float64(samples), "folded-samples")
	b.ReportMetric(float64(matrixLoads), "matrix-loads")
	b.ReportMetric(float64(matrixStores), "matrix-stores")
}

// BenchmarkFig1cCounterTimeline regenerates the bottom panel: MIPS and
// per-instruction miss curves. Metrics: peak folded MIPS (paper: bounded by
// ~1500 at 2.5 GHz) and mean IPC (paper: ~0.6).
func BenchmarkFig1cCounterTimeline(b *testing.B) {
	var peak, ipc float64
	for i := 0; i < b.N; i++ {
		run := runHPCG(b, benchConfig(), benchParams())
		if err := run.Figure1().RenderCounters(io.Discard); err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, v := range run.Folded.MIPS() {
			if v > peak {
				peak = v
			}
		}
		ipc = run.Folded.MeanIPC()
	}
	b.ReportMetric(peak, "peak-MIPS")
	b.ReportMetric(ipc*1000, "mIPC")
}

// BenchmarkBandwidthByRegion regenerates the in-text bandwidth comparison:
// paper values a1=4197, a2=4315, B=6427 MB/s (shape: B > a2 >= a1).
func BenchmarkBandwidthByRegion(b *testing.B) {
	var a1bw, a2bw, bbw float64
	for i := 0; i < b.N; i++ {
		run := runHPCG(b, benchConfig(), benchParams())
		if p, ok := run.PhaseByLabel("a1"); ok {
			a1bw = p.SpanBandwidth / 1e6
		}
		if p, ok := run.PhaseByLabel("a2"); ok {
			a2bw = p.SpanBandwidth / 1e6
		}
		if p, ok := run.PhaseByLabel("B"); ok {
			bbw = p.SpanBandwidth / 1e6
		}
	}
	b.ReportMetric(a1bw, "a1-MB/s")
	b.ReportMetric(a2bw, "a2-MB/s")
	b.ReportMetric(bbw, "B-MB/s")
	if a1bw > 0 {
		b.ReportMetric(bbw/a1bw, "B/a1-ratio")
	}
}

// BenchmarkObjectAccounting regenerates the object-size accounting: the
// paper's two groups are 617 MB and 89 MB (ratio 6.93) at 104³; the ratio
// is size-invariant in our generator (540+ vs 80 bytes per row).
func BenchmarkObjectAccounting(b *testing.B) {
	var ratio float64
	var matrixRefs, mapRefs uint64
	for i := 0; i < b.N; i++ {
		run := runHPCG(b, benchConfig(), benchParams())
		m, g := run.MatrixGroup(), run.MapGroup()
		if m == nil || g == nil {
			b.Fatal("groups missing")
		}
		ratio = float64(m.Bytes) / float64(g.Bytes)
		matrixRefs, mapRefs = m.Refs, g.Refs
	}
	b.ReportMetric(ratio, "size-ratio")
	b.ReportMetric(float64(matrixRefs), "matrix-refs")
	b.ReportMetric(float64(mapRefs), "map-refs")
}

// BenchmarkGroupingResolution regenerates the preliminary-analysis
// experiment: sample resolution rate without and with allocation grouping.
func BenchmarkGroupingResolution(b *testing.B) {
	var ungrouped, grouped float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Monitor.MinTrackSize = 1024
		pu := benchParams()
		pu.DisableGrouping = true
		runU := runHPCG(b, cfg, pu)
		runG := runHPCG(b, cfg, benchParams())
		ungrouped = runU.Session.Mon.Registry().ResolutionRate()
		grouped = runG.Session.Mon.Registry().ResolutionRate()
	}
	b.ReportMetric(ungrouped*100, "ungrouped-%")
	b.ReportMetric(grouped*100, "grouped-%")
}

// BenchmarkMultiplexing regenerates the single-run load+store capture: with
// multiplexing on, one run records both sample classes.
func BenchmarkMultiplexing(b *testing.B) {
	var loads, stores int
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Monitor.MuxQuantumNs = 20_000
		cfg.Monitor.PEBS.Period = 300
		res, err := core.RunWorkload(nil, cfg, workloads.NewStream(1<<15), 10, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		loads, stores = 0, 0
		for _, mp := range res.Threads[0].Folded.Mem {
			if mp.Store {
				stores++
			} else {
				loads++
			}
		}
	}
	b.ReportMetric(float64(loads), "load-samples")
	b.ReportMetric(float64(stores), "store-samples")
}

// BenchmarkMachineHPCG runs the full multi-threaded reproduction at 1, 2,
// 4 and 8 simulated cores (OpenMP-style row partitioning, private L1/L2,
// shared L3, one goroutine per core). The simulated work is fixed, so on a
// host with GOMAXPROCS >= threads the wall clock per op should drop close
// to linearly with the thread count — the tentpole scaling claim (>1.5×
// at 4 threads). On fewer host cores the bench still validates the
// concurrent path; the speedup simply cannot materialize. Metrics report
// the per-thread folded phase structure so scaling never trades away the
// reproduction shape.
func BenchmarkMachineHPCG(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var minPhases, letters int
			for i := 0; i < b.N; i++ {
				run, err := core.RunHPCGParallel(nil, benchConfig(), benchParams(), threads)
				if err != nil {
					b.Fatal(err)
				}
				minPhases = 1 << 30
				seen := map[byte]bool{}
				for _, tr := range run.Threads {
					if n := len(tr.Folded.Phases); n < minPhases {
						minPhases = n
					}
					for _, pp := range tr.Paper {
						if pp.Label != "-" {
							seen[pp.Label[0]|0x20] = true
						}
					}
				}
				letters = len(seen)
			}
			b.ReportMetric(float64(minPhases), "min-phases-per-thread")
			b.ReportMetric(float64(letters), "paper-letters")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkNUMAStreamPlacement measures the placement-policy axis on a
// DRAM-bound STREAM triad over a 2-socket machine (4 threads, sequential
// schedule for determinism): the working set (3 × 4 MiB) exceeds both
// sockets' L3s, so every iteration streams from DRAM, and the effective
// triad bandwidth is gated by the remote-fill fraction the policy
// produces. first-touch keeps each thread's block on its own node (~0%
// remote); interleave stripes pages across both nodes (~50% remote). The
// reported triad-MB/s uses the slowest thread's simulated clock — the
// wall time of the parallel section — and feeds the EXPERIMENTS.md
// local-vs-remote bandwidth table.
func BenchmarkNUMAStreamPlacement(b *testing.B) {
	const n, iters = 1 << 19, 4
	for _, policy := range []numa.Policy{numa.FirstTouch, numa.Interleave} {
		b.Run(policy.String(), func(b *testing.B) {
			var mbps, remotePct float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.NUMA = numa.Config{Sockets: 2, Policy: policy}
				res, err := core.RunWorkload(nil, cfg, workloads.NewStream(n), iters, 4, nil)
				if err != nil {
					b.Fatal(err)
				}
				var maxCycles, fills, remote uint64
				for _, th := range res.Machine.Threads {
					if c := th.Core.Cycles(); c > maxCycles {
						maxCycles = c
					}
					fills += th.Hier.DRAMAccesses()
					remote += th.Hier.RemoteDRAMAccesses()
				}
				secs := float64(maxCycles) / res.Machine.Threads[0].Core.FreqHz()
				mbps = float64(iters) * 24 * n / secs / 1e6
				remotePct = 100 * float64(remote) / float64(fills)
			}
			b.ReportMetric(mbps, "triad-MB/s")
			b.ReportMetric(remotePct, "remote-fill-pct")
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

// BenchmarkAblationSamplingPeriod sweeps the PEBS period: folded detail
// (samples) versus monitoring overhead trade-off.
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	for _, period := range []uint64{100, 400, 1600, 6400} {
		b.Run(periodName(period), func(b *testing.B) {
			var samples int
			var overheadPct float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Monitor.PEBS.Period = period
				run := runHPCG(b, cfg, benchParams())
				samples = len(run.Folded.Mem)
				st := run.Session.Mon.Engine().Stats()
				// Drain overhead cycles relative to total cycles.
				overheadPct = 100 * float64(st.Drains*cfg.Monitor.DrainOverheadCycles) /
					float64(run.Session.Core.Cycles())
			}
			b.ReportMetric(float64(samples), "folded-samples")
			b.ReportMetric(overheadPct, "overhead-%")
		})
	}
}

func periodName(p uint64) string {
	switch p {
	case 100:
		return "period100"
	case 400:
		return "period400"
	case 1600:
		return "period1600"
	default:
		return "period6400"
	}
}

// BenchmarkAblationKernelBandwidth sweeps the folding regression bandwidth:
// the smoothing that replaces Kriging. Too narrow → noisy rates; too wide →
// phase transitions blur.
func BenchmarkAblationKernelBandwidth(b *testing.B) {
	for _, bw := range []struct {
		name string
		val  float64
	}{{"bw0.005", 0.005}, {"bw0.02", 0.02}, {"bw0.08", 0.08}} {
		b.Run(bw.name, func(b *testing.B) {
			var phases int
			var peak float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Folding.Bandwidth = bw.val
				run := runHPCG(b, cfg, benchParams())
				phases = len(run.Folded.Phases)
				peak = 0
				for _, v := range run.Folded.MIPS() {
					if v > peak {
						peak = v
					}
				}
			}
			b.ReportMetric(float64(phases), "phases")
			b.ReportMetric(peak, "peak-MIPS")
		})
	}
}

// BenchmarkAblationPrefetcher compares the data-source mix with the
// next-line prefetcher on and off: linear sweeps benefit, DRAM share drops.
func BenchmarkAblationPrefetcher(b *testing.B) {
	for _, pf := range []bool{true, false} {
		name := "prefetch-on"
		if !pf {
			name = "prefetch-off"
		}
		b.Run(name, func(b *testing.B) {
			var dramShare float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Cache.NextLinePrefetch = pf
				run := runHPCG(b, cfg, benchParams())
				var total, dram int
				for _, mp := range run.Folded.Mem {
					total++
					if mp.Source == memhier.SrcDRAM {
						dram++
					}
				}
				if total > 0 {
					dramShare = 100 * float64(dram) / float64(total)
				}
			}
			b.ReportMetric(dramShare, "DRAM-sample-%")
		})
	}
}

// BenchmarkAblationMuxQuantum sweeps the PEBS load/store multiplexing
// quantum: smaller quanta interleave the classes more finely but each
// class sees fewer consecutive ops.
func BenchmarkAblationMuxQuantum(b *testing.B) {
	for _, q := range []struct {
		name string
		ns   uint64
	}{{"mux10us", 10_000}, {"mux100us", 100_000}, {"mux1ms", 1_000_000}} {
		b.Run(q.name, func(b *testing.B) {
			var storeShare float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Monitor.MuxQuantumNs = q.ns
				cfg.Monitor.PEBS.Period = 300
				res, err := core.RunWorkload(nil, cfg, workloads.NewStream(1<<15), 10, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				var stores, total int
				for _, mp := range res.Threads[0].Folded.Mem {
					total++
					if mp.Store {
						stores++
					}
				}
				if total > 0 {
					storeShare = 100 * float64(stores) / float64(total)
				}
			}
			// STREAM's true store share is 1/3.
			b.ReportMetric(storeShare, "store-sample-%")
		})
	}
}

// BenchmarkAblationGroupThreshold sweeps the individual-allocation tracking
// threshold with grouping disabled: the knob whose default loses HPCG's
// rows (540 B each).
func BenchmarkAblationGroupThreshold(b *testing.B) {
	for _, th := range []struct {
		name string
		val  uint64
	}{{"min128", 128}, {"min512", 512}, {"min1024", 1024}} {
		b.Run(th.name, func(b *testing.B) {
			var rate float64
			var objects int
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Monitor.MinTrackSize = th.val
				p := benchParams()
				p.DisableGrouping = true
				run := runHPCG(b, cfg, p)
				rate = run.Session.Mon.Registry().ResolutionRate()
				objects = len(run.Session.Mon.Registry().Objects())
			}
			b.ReportMetric(rate*100, "resolution-%")
			b.ReportMetric(float64(objects), "objects")
		})
	}
}

// --- Substrate microbenchmarks ---

// BenchmarkMemhierAccess measures the cache-simulator hot path: the
// historical random-address case plus streaming cases at three working-set
// residencies, each issued per-op (one Access per element) and through the
// line-run batch API (one AccessRun per 8-element line chunk, the issue
// granularity of the instrumented kernels). ns/op is per simulated element
// access in every case, so perop vs run at the same residency is the
// line-run batching speedup.
func BenchmarkMemhierAccess(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		h, err := memhier.New(memhier.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		addrs := make([]uint64, 4096)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1 << 24))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(addrs[i%len(addrs)], 8, i%4 == 0)
		}
	})
	// Element sweeps over a 16 KiB (L1-resident), 256 KiB (L2-resident)
	// and 8 MiB (DRAM-bound) working set.
	for _, ws := range []struct {
		name  string
		words int
	}{{"L1", 1 << 11}, {"L2", 1 << 15}, {"DRAM", 1 << 20}} {
		b.Run("stream-perop-"+ws.name, func(b *testing.B) {
			h, err := memhier.New(memhier.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(uint64(i%ws.words)*8, 8, false)
			}
		})
		b.Run("stream-run-"+ws.name, func(b *testing.B) {
			h, err := memhier.New(memhier.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var rr memhier.RunResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 8 {
				h.AccessRun(uint64(i%ws.words)*8, 8, 8, false, &rr)
			}
		})
	}
}

// BenchmarkCoreLoad measures the full simulated-load path (cache + PMU).
func BenchmarkCoreLoad(b *testing.B) {
	h, _ := memhier.New(memhier.DefaultConfig())
	c, err := cpu.New(cpu.DefaultConfig(), h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(0x400000, uint64(i%(1<<20))*8, 8)
	}
}

// BenchmarkCoreLoadStream measures the batched stream-issue path: the same
// sequential element traffic as BenchmarkCoreLoad, issued line-at-a-time.
func BenchmarkCoreLoadStream(b *testing.B) {
	h, _ := memhier.New(memhier.DefaultConfig())
	c, err := cpu.New(cpu.DefaultConfig(), h)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += chunk {
		base := uint64((i % (1 << 20))) * 8
		c.IssueRun(cpu.LineRun{IP: 0x400000, Base: base, Stride: 8, Size: 8, Count: chunk})
	}
}

// BenchmarkPEBSObserve measures the sampling engine's per-op cost.
func BenchmarkPEBSObserve(b *testing.B) {
	eng, err := pebs.New(pebs.DefaultConfig(), func([]pebs.Sample) {})
	if err != nil {
		b.Fatal(err)
	}
	op := cpu.MemOp{IP: 0x400000, Addr: 0x1000, Size: 8, Latency: 12, Source: memhier.SrcL2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Addr = uint64(i) * 8
		eng.Observe(op, uint64(i), 0)
	}
}

// BenchmarkFoldingFold measures the analysis cost on a synthetic trace.
func BenchmarkFoldingFold(b *testing.B) {
	instances := make([]folding.Instance, 50)
	for k := range instances {
		in := folding.Instance{T0: uint64(k) * 1000, T1: uint64(k)*1000 + 900}
		in.C1[cpu.CtrInstructions] = 100000
		in.C1[cpu.CtrCycles] = 200000
		for i := 0; i < 100; i++ {
			sigma := float64(i) / 100
			s := folding.Sample{
				TimeNs: in.T0 + uint64(sigma*900),
				Addr:   0x1000 + uint64(i*64),
				IP:     0x400000,
			}
			s.Counters[cpu.CtrInstructions] = uint64(sigma * 100000)
			s.Counters[cpu.CtrCycles] = uint64(sigma * 200000)
			in.Samples = append(in.Samples, s)
		}
		instances[k] = in
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := folding.Fold(instances, folding.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldingFoldFigure folds a cloud shaped like the Figure 1
// reproduction's: 3 instances carrying 130,800 samples between them, with
// the 8 counters of the default PMU programming live (CtrRemoteDRAM stays
// flat), each accumulating along its own curve over one shared sigma cloud.
func BenchmarkFoldingFoldFigure(b *testing.B) {
	const perInstance = 43600
	const durNs = 1_500_000_000
	rng := rand.New(rand.NewSource(32))
	instances := make([]folding.Instance, 3)
	for k := range instances {
		in := folding.Instance{T0: uint64(k) * 2 * durNs, T1: uint64(k)*2*durNs + durNs}
		for c := cpu.CounterID(0); c < cpu.CtrRemoteDRAM; c++ {
			in.C1[c] = 1_000_000 * uint64(c+1)
		}
		times := make([]uint64, perInstance)
		for i := range times {
			times[i] = uint64(rng.Int63n(durNs))
		}
		slices.Sort(times)
		in.Samples = make([]folding.Sample, perInstance)
		for i, dt := range times {
			sigma := float64(dt) / durNs
			s := &in.Samples[i]
			s.TimeNs = in.T0 + dt
			s.Addr = 0x1000 + uint64(i%4096)*64
			s.IP = 0x400000 + uint64(i%7)*16
			for c := cpu.CounterID(0); c < cpu.CtrRemoteDRAM; c++ {
				s.Counters[c] = uint64(float64(in.C1[c]) * math.Pow(sigma, 0.5+0.25*float64(c)))
			}
		}
		instances[k] = in
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := folding.Fold(instances, folding.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceEncode measures the throughput of the Paraver text form
// every pipeline writes, over Figure-1-shaped records (7 sample pairs + 8
// counter pairs each, at about the record count of the Figure 1 trace).
func BenchmarkTraceEncode(b *testing.B) {
	b.Run("prv", func(b *testing.B) {
		const nRecs = 131072
		const nPairs = 15
		rng := rand.New(rand.NewSource(15))
		pairs := make([]trace.TypeValue, nRecs*nPairs)
		recs := make([]trace.Record, nRecs)
		for i := range recs {
			p := pairs[i*nPairs : (i+1)*nPairs]
			p[0] = trace.TypeValue{Type: trace.TypeSampleAddr, Value: 0x2adf00000000 + rng.Int63n(1<<30)&^7}
			p[1] = trace.TypeValue{Type: trace.TypeSampleLatency, Value: 4 + rng.Int63n(400)}
			p[2] = trace.TypeValue{Type: trace.TypeSampleSource, Value: rng.Int63n(5)}
			p[3] = trace.TypeValue{Type: trace.TypeSampleStore, Value: rng.Int63n(2)}
			p[4] = trace.TypeValue{Type: trace.TypeSampleIP, Value: 0x400000 + rng.Int63n(1<<12)}
			p[5] = trace.TypeValue{Type: trace.TypeSampleStack, Value: rng.Int63n(64)}
			p[6] = trace.TypeValue{Type: trace.TypeSampleSize, Value: 8}
			for c := 0; c < 8; c++ {
				p[7+c] = trace.TypeValue{Type: trace.TypeCounterBase + uint32(c), Value: int64(i) * int64(400+c*997)}
			}
			recs[i] = trace.Record{TimeNs: uint64(i) * 1237, Task: 1, Thread: 1, Pairs: p}
		}
		encode := func(w io.Writer) error {
			tw, err := trace.NewWriter(w, 1, 1, uint64(nRecs)*1237)
			if err != nil {
				return err
			}
			for _, r := range recs {
				if err := tw.Write(r); err != nil {
					return err
				}
			}
			return tw.Close()
		}
		var cw countingWriter
		if err := encode(&cw); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(cw.n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := encode(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReportCSV measures the Figure 1 top (lines) and middle (mem)
// panel CSV writers over as many folded points as the Figure 1 run emits.
func BenchmarkReportCSV(b *testing.B) {
	const nPoints = 131072
	bin := prog.NewBinary()
	fn, err := bin.AddFunction("ComputeSPMV_ref", "ComputeSPMV_ref.cpp", 60, 40)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(131))
	folded := &folding.Folded{
		Lines: make([]folding.LinePoint, nPoints),
		Mem:   make([]folding.MemPoint, nPoints),
	}
	for i := range folded.Lines {
		sigma := rng.Float64()
		ip, err := fn.IPForLine(60 + rng.Intn(40))
		if err != nil {
			b.Fatal(err)
		}
		folded.Lines[i] = folding.LinePoint{Sigma: sigma, IP: ip}
		folded.Mem[i] = folding.MemPoint{
			Sigma: sigma, Addr: 0x2adf00000000 + uint64(rng.Int63n(1<<30))&^7,
			Store: rng.Intn(4) == 0, Latency: uint64(4 + rng.Intn(400)),
			Source: memhier.DataSource(rng.Intn(4)), IP: ip,
		}
	}
	fig := &report.Figure1{Folded: folded, Binary: bin}
	objectOf := func(uint64) string { return "124_GenerateProblem_ref.cpp" }
	for _, bc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"lines", func(w io.Writer) error { return report.WriteLinesCSV(w, fig) }},
		{"mem", func(w io.Writer) error { return report.WriteMemCSV(w, fig, objectOf) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var cw countingWriter
			if err := bc.write(&cw); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(cw.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingWriter counts bytes written to it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
