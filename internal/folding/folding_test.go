package folding

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/memhier"
	"repro/internal/stats"
	"repro/internal/trace"
)

// synthInstance builds one instance of duration durNs starting at t0 with
// nSamples samples. The instance has two halves: first half executes at
// ipA sweeping addresses forward over [addrBase, addrBase+span), second
// half at ipB sweeping backward over the same range. Instructions
// accumulate linearly; every 4th sample is a store.
func synthInstance(t0, durNs uint64, nSamples int, ipA, ipB, addrBase, span uint64) Instance {
	const totalInstr = 1_000_000
	in := Instance{T0: t0, T1: t0 + durNs}
	in.C1[cpu.CtrInstructions] = in.C0[cpu.CtrInstructions] + totalInstr
	in.C0[cpu.CtrCycles] = 0
	in.C1[cpu.CtrCycles] = 2 * totalInstr // IPC 0.5
	in.C0[cpu.CtrBranches] = 0
	in.C1[cpu.CtrBranches] = totalInstr / 10
	in.C0[cpu.CtrL1DMiss] = 0
	in.C1[cpu.CtrL1DMiss] = totalInstr / 20
	for i := 0; i < nSamples; i++ {
		sigma := (float64(i) + 0.5) / float64(nSamples)
		s := Sample{
			TimeNs:  t0 + uint64(sigma*float64(durNs)),
			Store:   i%4 == 0,
			Size:    8,
			Source:  memhier.SrcL2,
			Latency: 12,
		}
		s.Counters[cpu.CtrInstructions] = uint64(sigma * totalInstr)
		s.Counters[cpu.CtrCycles] = uint64(sigma * 2 * totalInstr)
		s.Counters[cpu.CtrBranches] = uint64(sigma * totalInstr / 10)
		s.Counters[cpu.CtrL1DMiss] = uint64(sigma * totalInstr / 20)
		if sigma < 0.5 {
			s.IP = ipA
			s.Addr = addrBase + uint64(2*sigma*float64(span))
		} else {
			s.IP = ipB
			s.Addr = addrBase + span - uint64(2*(sigma-0.5)*float64(span))
		}
		in.Samples = append(in.Samples, s)
	}
	return in
}

func synthInstances(n int) []Instance {
	const dur = 1_000_000 // 1 ms
	out := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		// Jitter the per-instance sample phase by varying the count.
		out = append(out, synthInstance(uint64(i)*2*dur, dur, 40+i%7,
			0x401000, 0x402000, 0x10000000, 1<<26))
	}
	return out
}

func TestFoldErrors(t *testing.T) {
	if _, err := Fold(nil, DefaultConfig()); err == nil {
		t.Error("empty instances accepted")
	}
}

func TestFoldBasics(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.InstancesUsed != 20 || f.InstancesTotal != 20 {
		t.Errorf("instances = %d/%d", f.InstancesUsed, f.InstancesTotal)
	}
	if math.Abs(f.MeanDurationNs-1e6) > 1 {
		t.Errorf("mean duration = %g", f.MeanDurationNs)
	}
	if math.Abs(f.MeanTotals[cpu.CtrInstructions]-1e6) > 1 {
		t.Errorf("mean instructions = %g", f.MeanTotals[cpu.CtrInstructions])
	}
	if ipc := f.MeanIPC(); math.Abs(ipc-0.5) > 1e-9 {
		t.Errorf("MeanIPC = %g, want 0.5", ipc)
	}
}

func TestFoldedCumulativeMonotone(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c, curve := range f.Cumulative {
		if f.MeanTotals[c] == 0 {
			continue // counter never increments: flat zero curve
		}
		if curve[0] != 0 || curve[len(curve)-1] != 1 {
			t.Errorf("%v: endpoints %g, %g", c, curve[0], curve[len(curve)-1])
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Fatalf("%v: cumulative curve not monotone at %d", c, i)
			}
		}
	}
}

func TestFoldedRateMatchesLinearAccumulation(t *testing.T) {
	// Instructions accumulate linearly: the folded rate must be flat at
	// total/duration = 1e6 instr / 1e-3 s = 1e9/s → 1000 MIPS.
	f, err := Fold(synthInstances(30), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mips := f.MIPS()
	for i, g := range f.Grid {
		if g < 0.1 || g > 0.9 {
			continue // edges have derivative bias
		}
		if math.Abs(mips[i]-1000)/1000 > 0.15 {
			t.Errorf("MIPS(%.2f) = %g, want ~1000", g, mips[i])
		}
	}
}

func TestPerInstruction(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	br := f.PerInstruction(cpu.CtrBranches)
	for i, g := range f.Grid {
		if g < 0.1 || g > 0.9 {
			continue
		}
		if math.Abs(br[i]-0.1) > 0.03 {
			t.Errorf("branches/instr at %.2f = %g, want ~0.1", g, br[i])
		}
	}
}

func TestOutlierFiltering(t *testing.T) {
	ins := synthInstances(10)
	// One instance 10x longer (e.g. perturbed by OS noise).
	long := synthInstance(100_000_000, 10_000_000, 40, 0x401000, 0x402000, 0x10000000, 1<<26)
	ins = append(ins, long)
	f, err := Fold(ins, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.InstancesUsed != 10 || f.InstancesTotal != 11 {
		t.Errorf("outlier not filtered: used %d of %d", f.InstancesUsed, f.InstancesTotal)
	}
	// Factor 0 disables filtering.
	cfg := DefaultConfig()
	cfg.OutlierFactor = 0
	f2, _ := Fold(ins, cfg)
	if f2.InstancesUsed != 11 {
		t.Errorf("filtering not disabled: %d", f2.InstancesUsed)
	}
}

// muxInstances builds instances shaped like a multiplexed run's: the fixed
// counters are live everywhere, but Branches is off in instance 1 and
// L1DMiss in instance 8, and the Stores estimate overshoots its instance
// total at one sample per instance (the scaled-estimate error that the
// fraction filter drops). The counters therefore fold over four distinct
// sigma clouds, two of them of equal size (instances 1 and 8 carry 41
// samples each).
func muxInstances() []Instance {
	ins := synthInstances(12)
	for k := range ins {
		in := &ins[k]
		in.C1[cpu.CtrStores] = 250_000
		for i := range in.Samples {
			s := &in.Samples[i]
			sigma := float64(s.TimeNs-in.T0) / float64(in.DurationNs())
			s.Counters[cpu.CtrStores] = uint64(sigma * sigma * 250_000)
			if i == 1+k%5 {
				s.Counters[cpu.CtrStores] = 260_000
			}
		}
		var off cpu.CounterID = -1
		switch k {
		case 1:
			off = cpu.CtrBranches
		case 8:
			off = cpu.CtrL1DMiss
		}
		if off >= 0 {
			in.C1[off] = in.C0[off]
			for i := range in.Samples {
				in.Samples[i].Counters[off] = in.C0[off]
			}
		}
	}
	return ins
}

// TestFoldSharedCloudsMatchPerCounterFit pins the grouped regression of
// Fold: with counters spread over several distinct sigma clouds, every
// Cumulative and Rates curve must carry the same bits as the per-counter
// computation, one Fit per counter.
func TestFoldSharedCloudsMatchPerCounterFit(t *testing.T) {
	ins := muxInstances()
	cfg := DefaultConfig()
	f, err := Fold(ins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := filterOutliers(ins, cfg.OutlierFactor)
	sm := stats.Smoother{Kernel: cfg.Kernel, Bandwidth: cfg.Bandwidth, Lo: 0, Hi: 1}
	var clouds [][]float64
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		xs, ys := foldCounter(kept, c, nil, nil)
		if len(xs) == 0 {
			continue
		}
		if !slices.ContainsFunc(clouds, func(cl []float64) bool { return slices.Equal(cl, xs) }) {
			clouds = append(clouds, xs)
		}
		fit, err := sm.Fit(xs, ys, f.Grid)
		if err != nil {
			t.Fatal(err)
		}
		fit = stats.Isotonic(fit)
		stats.Clamp(fit, 0, 1)
		fit[0], fit[len(fit)-1] = 0, 1
		d, err := stats.Derivative(f.Grid, fit)
		if err != nil {
			t.Fatal(err)
		}
		scale := f.MeanTotals[c] / (f.MeanDurationNs / 1e9)
		for i := range fit {
			rate := max(d[i], 0) * scale
			if math.Float64bits(f.Cumulative[c][i]) != math.Float64bits(fit[i]) ||
				math.Float64bits(f.Rates[c][i]) != math.Float64bits(rate) {
				t.Fatalf("%v at %g: folded %v / %v, per-counter fit %v / %v",
					c, f.Grid[i], f.Cumulative[c][i], f.Rates[c][i], fit[i], rate)
			}
		}
	}
	if len(clouds) != 4 {
		t.Fatalf("counters folded over %d distinct clouds, want 4", len(clouds))
	}
}

// TestFoldCompactKernelSparseCloud is the regression test for compact
// kernels on a cloud too sparse to cover the grid: grid points with no
// sample inside the support must take the nearest fitted value, so every
// curve is finite, monotone and runs from 0 to 1.
func TestFoldCompactKernelSparseCloud(t *testing.T) {
	var ins []Instance
	for k := 0; k < 4; k++ {
		ins = append(ins, synthInstance(uint64(k)*2_000_000, 1_000_000, 2, 0x401000, 0x402000, 0x10000000, 1<<20))
	}
	for _, k := range []stats.Kernel{stats.Epanechnikov, stats.Uniform} {
		cfg := DefaultConfig()
		cfg.Kernel = k
		cfg.Bandwidth = 0.01
		f, err := Fold(ins, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c, curve := range f.Cumulative {
			if f.MeanTotals[c] == 0 {
				continue
			}
			if curve[0] != 0 || curve[len(curve)-1] != 1 {
				t.Errorf("%v %v: endpoints %g, %g", k, c, curve[0], curve[len(curve)-1])
			}
			for i, v := range curve {
				r := f.Rates[c][i]
				if math.IsNaN(v) || math.IsNaN(r) || math.IsInf(r, 0) {
					t.Fatalf("%v %v at %g: cumulative %g, rate %g", k, c, f.Grid[i], v, r)
				}
				if i > 0 && v < curve[i-1] {
					t.Fatalf("%v %v: cumulative curve not monotone at %d", k, c, i)
				}
			}
		}
	}
}

func TestFillEmptyWindows(t *testing.T) {
	nan := math.NaN()
	fit := []float64{nan, 1, nan, nan, nan, 5, nan}
	fillEmptyWindows(fit)
	want := []float64{1, 1, 1, 1, 5, 5, 5}
	if !slices.Equal(fit, want) {
		t.Errorf("filled %v, want %v", fit, want)
	}
}

func TestMemSamplesFoldedSorted(t *testing.T) {
	f, err := Fold(synthInstances(15), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Mem) == 0 || len(f.Lines) != len(f.Mem) {
		t.Fatalf("mem/lines = %d/%d", len(f.Mem), len(f.Lines))
	}
	for i := 1; i < len(f.Mem); i++ {
		if f.Mem[i].Sigma < f.Mem[i-1].Sigma {
			t.Fatal("Mem not sorted by sigma")
		}
	}
	for _, mp := range f.Mem {
		if mp.Sigma < 0 || mp.Sigma >= 1 {
			t.Fatalf("sigma %g out of range", mp.Sigma)
		}
	}
	var stores int
	for _, mp := range f.Mem {
		if mp.Store {
			stores++
		}
	}
	if stores == 0 || stores == len(f.Mem) {
		t.Error("store flags not preserved")
	}
}

func TestPhaseDetectionSplitsFunctionsAndSweeps(t *testing.T) {
	f, err := Fold(synthInstances(30), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Phases) < 2 {
		t.Fatalf("detected %d phases, want >= 2 (two IP regions)", len(f.Phases))
	}
	// Phases tile [0,1].
	if f.Phases[0].Lo != 0 || f.Phases[len(f.Phases)-1].Hi != 1 {
		t.Errorf("phases do not span [0,1]: %+v", f.Phases)
	}
	for i := 1; i < len(f.Phases); i++ {
		if f.Phases[i].Lo != f.Phases[i-1].Hi {
			t.Errorf("gap between phases %d and %d", i-1, i)
		}
	}
	// First phase sweeps forward, last sweeps backward.
	first, last := f.Phases[0], f.Phases[len(f.Phases)-1]
	if first.Direction != SweepForward {
		t.Errorf("first phase direction = %v, want forward", first.Direction)
	}
	if last.Direction != SweepBackward {
		t.Errorf("last phase direction = %v, want backward", last.Direction)
	}
	if first.DominantIP != 0x401000 || last.DominantIP != 0x402000 {
		t.Errorf("dominant IPs = %#x, %#x", first.DominantIP, last.DominantIP)
	}
}

func TestPhaseBandwidthApproximation(t *testing.T) {
	// Forward sweep covers 64 MiB in ~0.5 ms → ~128 GiB/s span bandwidth.
	f, err := Fold(synthInstances(30), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := f.Phases[0]
	want := float64(1<<26) / (0.5e6 / 1e9)
	if p.SpanBandwidth < want/3 || p.SpanBandwidth > want*3 {
		t.Errorf("span bandwidth = %g, want within 3x of %g", p.SpanBandwidth, want)
	}
	if p.MIPSMean < 500 || p.MIPSMean > 1500 {
		t.Errorf("phase MIPS = %g, want ~1000", p.MIPSMean)
	}
	if p.Loads == 0 || p.Stores == 0 {
		t.Error("phase sample counts empty")
	}
	if p.PerInstr[cpu.CtrBranches] == 0 {
		t.Error("phase per-instruction ratios empty")
	}
}

func TestLabelPhases(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.LabelPhases(func(ip uint64) string {
		if ip < 0x402000 {
			return "funcA"
		}
		return "funcB"
	})
	if f.Phases[0].Name != "funcA[forward]" {
		t.Errorf("phase 0 name = %q", f.Phases[0].Name)
	}
	last := f.Phases[len(f.Phases)-1]
	if last.Name != "funcB[backward]" {
		t.Errorf("last phase name = %q", last.Name)
	}
	// Nil resolver is a no-op.
	f.Phases[0].Name = "keep"
	f.LabelPhases(nil)
	if f.Phases[0].Name != "keep" {
		t.Error("nil resolver modified names")
	}
}

func TestPhaseAt(t *testing.T) {
	f, err := Fold(synthInstances(20), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, ok := f.PhaseAt(0.1)
	if !ok || p.Lo > 0.1 || p.Hi <= 0.1 {
		t.Errorf("PhaseAt(0.1) = %+v, %v", p, ok)
	}
	if _, ok := f.PhaseAt(1.5); ok {
		t.Error("PhaseAt(1.5) matched")
	}
}

func TestSweepDirString(t *testing.T) {
	if SweepFlat.String() != "flat" || SweepForward.String() != "forward" ||
		SweepBackward.String() != "backward" {
		t.Error("SweepDir names")
	}
	if SweepDir(7).String() != "SweepDir(7)" {
		t.Error("unknown SweepDir")
	}
}

func TestExtractInstances(t *testing.T) {
	ctr := func(instr uint64) []trace.TypeValue {
		return []trace.TypeValue{
			{Type: trace.TypeCounterBase + uint32(cpu.CtrInstructions), Value: int64(instr)},
		}
	}
	recs := []trace.Record{
		{TimeNs: 100, Task: 1, Thread: 1,
			Pairs: append([]trace.TypeValue{{Type: trace.TypeRegion, Value: 7}}, ctr(10)...)},
		{TimeNs: 150, Task: 1, Thread: 1, Pairs: append([]trace.TypeValue{
			{Type: trace.TypeSampleAddr, Value: 0x1000},
			{Type: trace.TypeSampleLatency, Value: 36},
			{Type: trace.TypeSampleSource, Value: int64(memhier.SrcL3)},
			{Type: trace.TypeSampleStore, Value: 1},
			{Type: trace.TypeSampleIP, Value: 0x400100},
			{Type: trace.TypeSampleStack, Value: 3},
			{Type: trace.TypeSampleSize, Value: 8},
		}, ctr(50)...)},
		{TimeNs: 200, Task: 1, Thread: 1,
			Pairs: append([]trace.TypeValue{{Type: trace.TypeRegion, Value: 0}}, ctr(110)...)},
		// A sample outside any instance is ignored.
		{TimeNs: 250, Task: 1, Thread: 1, Pairs: []trace.TypeValue{
			{Type: trace.TypeSampleAddr, Value: 0x9999}}},
		// Second instance, no samples.
		{TimeNs: 300, Task: 1, Thread: 1,
			Pairs: append([]trace.TypeValue{{Type: trace.TypeRegion, Value: 7}}, ctr(200)...)},
		{TimeNs: 400, Task: 1, Thread: 1,
			Pairs: append([]trace.TypeValue{{Type: trace.TypeRegion, Value: 0}}, ctr(300)...)},
	}
	ins, err := Extract(recs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("extracted %d instances", len(ins))
	}
	in := ins[0]
	if in.T0 != 100 || in.T1 != 200 || in.DurationNs() != 100 {
		t.Errorf("instance bounds = %d..%d", in.T0, in.T1)
	}
	if in.C0[cpu.CtrInstructions] != 10 || in.C1[cpu.CtrInstructions] != 110 {
		t.Errorf("instance counters = %v..%v", in.C0, in.C1)
	}
	if len(in.Samples) != 1 {
		t.Fatalf("instance samples = %d", len(in.Samples))
	}
	s := in.Samples[0]
	if s.Addr != 0x1000 || s.Latency != 36 || s.Source != memhier.SrcL3 ||
		!s.Store || s.IP != 0x400100 || s.StackID != 3 || s.Size != 8 ||
		s.Counters[cpu.CtrInstructions] != 50 {
		t.Errorf("sample = %+v", s)
	}
	if len(ins[1].Samples) != 0 {
		t.Error("second instance should have no samples")
	}
}

func TestExtractNestedRejected(t *testing.T) {
	recs := []trace.Record{
		{TimeNs: 1, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 7}}},
		{TimeNs: 2, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 7}}},
	}
	if _, err := Extract(recs, 7); err == nil {
		t.Error("nested instance accepted")
	}
}

func TestExtractIgnoresOtherRegions(t *testing.T) {
	recs := []trace.Record{
		{TimeNs: 1, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 5}}},
		{TimeNs: 2, Task: 1, Thread: 1, Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: 0}}},
	}
	ins, err := Extract(recs, 7)
	if err != nil || len(ins) != 0 {
		t.Errorf("ins = %v, err = %v", ins, err)
	}
}

// regionRec builds a one-pair region record for the given emitter.
func regionRec(tns uint64, task, thread int, value int64, instr uint64) trace.Record {
	return trace.Record{TimeNs: tns, Task: task, Thread: thread, Pairs: []trace.TypeValue{
		{Type: trace.TypeRegion, Value: value},
		{Type: trace.TypeCounterBase + uint32(cpu.CtrInstructions), Value: int64(instr)},
	}}
}

// sampleRec builds a one-address sample record for the given emitter.
func sampleRec(tns uint64, task, thread int, addr uint64) trace.Record {
	return trace.Record{TimeNs: tns, Task: task, Thread: thread, Pairs: []trace.TypeValue{
		{Type: trace.TypeSampleAddr, Value: int64(addr)},
	}}
}

// TestExtractThreadInterleaved is the regression test for thread-blind
// extraction: a merged two-thread trace interleaves region events and
// samples, and a per-thread extraction must see only its own thread's
// instances and samples, at its own timestamps.
func TestExtractThreadInterleaved(t *testing.T) {
	// Thread 1: instance [100, 300] with a sample at 200.
	// Thread 2: instance [150, 420] with samples at 180 and 350 — its
	// region events land inside thread 1's instance in the merged order.
	merged := trace.Merge([]trace.Record{
		regionRec(100, 1, 1, 7, 10),
		sampleRec(200, 1, 1, 0x1000),
		regionRec(300, 1, 1, 0, 110),
	}, []trace.Record{
		regionRec(150, 1, 2, 7, 1000),
		sampleRec(180, 1, 2, 0x2000),
		sampleRec(350, 1, 2, 0x3000),
		regionRec(420, 1, 2, 0, 1500),
	})
	for _, tc := range []struct {
		thread  int
		t0, t1  uint64
		samples []uint64
		c0, c1  uint64
	}{
		{thread: 1, t0: 100, t1: 300, samples: []uint64{0x1000}, c0: 10, c1: 110},
		{thread: 2, t0: 150, t1: 420, samples: []uint64{0x2000, 0x3000}, c0: 1000, c1: 1500},
	} {
		ins, err := ExtractThread(merged, 7, 1, tc.thread)
		if err != nil {
			t.Fatalf("thread %d: %v", tc.thread, err)
		}
		if len(ins) != 1 {
			t.Fatalf("thread %d: %d instances, want 1", tc.thread, len(ins))
		}
		in := ins[0]
		if in.T0 != tc.t0 || in.T1 != tc.t1 {
			t.Errorf("thread %d: bounds %d..%d, want %d..%d", tc.thread, in.T0, in.T1, tc.t0, tc.t1)
		}
		if in.C0[cpu.CtrInstructions] != tc.c0 || in.C1[cpu.CtrInstructions] != tc.c1 {
			t.Errorf("thread %d: counters %d..%d, want %d..%d", tc.thread,
				in.C0[cpu.CtrInstructions], in.C1[cpu.CtrInstructions], tc.c0, tc.c1)
		}
		if len(in.Samples) != len(tc.samples) {
			t.Fatalf("thread %d: %d samples, want %d", tc.thread, len(in.Samples), len(tc.samples))
		}
		for i, want := range tc.samples {
			if in.Samples[i].Addr != want {
				t.Errorf("thread %d sample %d: addr %#x, want %#x", tc.thread, i, in.Samples[i].Addr, want)
			}
		}
	}
	if _, err := ExtractThread(merged, 7, 0, 1); err == nil {
		t.Error("0-based task accepted")
	}
	// The thread-blind Extract cannot parse this stream (thread 2's entry
	// nests inside thread 1's open instance of the same region id).
	if _, err := Extract(merged, 7); err == nil {
		t.Error("thread-blind Extract accepted an interleaved merged trace")
	}
}

// TestExtractNestedRegionInsideEnclosure pins the nesting semantics for
// the common well-nested case: extracting a nested region (SYMGS inside a
// CG iteration) must close each instance at its own LIFO-matched end, not
// at the enclosing region's end — region events of the enclosure (its
// open before the instance, its end after) must not perturb the instance
// bounds.
func TestExtractNestedRegionInsideEnclosure(t *testing.T) {
	recs := []trace.Record{
		regionRec(0, 1, 1, 5, 0),    // enclosing iteration opens
		regionRec(10, 1, 1, 7, 100), // nested target instance opens
		sampleRec(20, 1, 1, 0x1000),
		regionRec(50, 1, 1, 0, 400), // the instance's own end (LIFO)
		sampleRec(60, 1, 1, 0x2000), // outside the instance: dropped
		regionRec(90, 1, 1, 0, 900), // the enclosure's end: ignored
		// Second iteration with a second instance.
		regionRec(100, 1, 1, 5, 1000),
		regionRec(110, 1, 1, 7, 1100),
		regionRec(150, 1, 1, 0, 1400),
		regionRec(190, 1, 1, 0, 1900),
	}
	ins, err := Extract(recs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("%d instances, want 2", len(ins))
	}
	if in := ins[0]; in.T0 != 10 || in.T1 != 50 || in.C1[cpu.CtrInstructions] != 400 {
		t.Errorf("instance 0 = %d..%d (exit ctr %d), want 10..50 (400)",
			in.T0, in.T1, in.C1[cpu.CtrInstructions])
	}
	if len(ins[0].Samples) != 1 || ins[0].Samples[0].Addr != 0x1000 {
		t.Errorf("instance 0 samples = %+v, want the single in-instance sample", ins[0].Samples)
	}
	if in := ins[1]; in.T0 != 110 || in.T1 != 150 {
		t.Errorf("instance 1 = %d..%d, want 110..150", in.T0, in.T1)
	}
}

// TestExtractIgnoresUnmatchedEnds covers ends whose opens are not in the
// records (regions entered before monitoring started): between instances
// they must not disturb extraction.
func TestExtractIgnoresUnmatchedEnds(t *testing.T) {
	recs := []trace.Record{
		regionRec(5, 1, 1, 0, 0), // end of a region opened before the trace
		regionRec(10, 1, 1, 7, 100),
		regionRec(100, 1, 1, 0, 900),
		regionRec(150, 1, 1, 0, 950), // another stray end between instances
		regionRec(200, 1, 1, 7, 1000),
		regionRec(300, 1, 1, 0, 1900),
	}
	ins, err := Extract(recs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("%d instances, want 2", len(ins))
	}
	if ins[0].T0 != 10 || ins[0].T1 != 100 || ins[1].T0 != 200 || ins[1].T1 != 300 {
		t.Errorf("instances mishandled around stray ends: %+v", ins)
	}
}
