package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestQuantileInterpolatesAndCountsSamples(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	d := summarize(xs)
	if d.N != 10 || d.P50 != 5.5 || math.Abs(d.P90-9.1) > 1e-12 || d.Max != 10 {
		t.Errorf("summarize = %+v, want N=10 P50=5.5 P90=9.1 Max=10", d)
	}
	if got := quantile([]float64{3}, 0.9); got != 3 {
		t.Errorf("single-sample quantile = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	// The input is not reordered.
	if xs[0] != 10 || xs[1] != 1 {
		t.Errorf("summarize sorted its input: %v", xs)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeIsParentMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: ms(0), End: ms(10)},
		// Overlapping children count once; a child running past its
		// parent's end is clipped.
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(2), End: ms(5)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)},
		// A grandchild reduces its parent's self time only.
		{ID: 5, Parent: 3, Name: "d", Start: ms(3), End: ms(4)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"pass": ms(4), "a": ms(2), "b": ms(2), "c": ms(4), "d": ms(1)}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	// Same-named spans sum.
	spans = append(spans, span{ID: 6, Name: "pass", Start: ms(20), End: ms(25)})
	if got := selfTimes(spans)["pass"]; got != ms(9) {
		t.Errorf("summed self = %v, want 9ms", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	o := tr.start("x", 0, 0)
	if o.id() != 0 {
		t.Errorf("nil tracer span id = %d", o.id())
	}
	o.end() // must not panic

	tr = newTracer()
	root := tr.start("root", 0, 7)
	child := tr.start("child", root.id(), 7)
	child.end()
	root.end()
	got := tr.snapshot()
	if len(got) != 2 || got[0].Parent != got[1].ID || got[0].Group != 7 {
		t.Errorf("spans = %+v", got)
	}
}

func TestWorkerBusyRatio(t *testing.T) {
	busy := []time.Duration{time.Second, time.Second, 2 * time.Second}
	if got := workerBusyRatio(busy, 2, 2*time.Second); got != 1 {
		t.Errorf("fully busy pool = %v, want 1", got)
	}
	if got := workerBusyRatio(busy, 2, 4*time.Second); got != 0.5 {
		t.Errorf("half-idle pool = %v, want 0.5", got)
	}
	if got := workerBusyRatio(busy, 0, time.Second); got != 0 {
		t.Errorf("no workers = %v, want 0", got)
	}
}

func TestTransportTimes(t *testing.T) {
	rt := []time.Duration{ms(10), ms(20), ms(30)}
	handler := []time.Duration{ms(4), 0, ms(25)}
	got := transportTimes(rt, handler)
	if !slices.Equal(got, []time.Duration{ms(6), ms(5)}) {
		t.Errorf("transport = %v, want [6ms 5ms]", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the Go metric lists and the
// benchmark definition at the repository root in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var gated []string
	for _, w := range gatedWorkloads() {
		gated = append(gated, w.name)
	}
	if !slices.Equal(names, gated) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, gated)
	}
	if !slices.Equal(def.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nbenchmark has %v", def.EndToEnd, endToEnd)
	}
	if !slices.Equal(def.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nbenchmark has %v", def.PerLayer, perLayer)
	}
}

// TestReferenceSecondsScaleByRunMedian pins the host-speed scaling: every
// timed end-to-end metric divides by the run's median reference job, in
// units of refNominal, and sizes are not scaled.
func TestReferenceSecondsScaleByRunMedian(t *testing.T) {
	// Reference jobs at 1, 2 and 3 times nominal: the median is 2, so the
	// host ran at half the reference speed and reference seconds are half
	// the host seconds.
	refs := func(k ...float64) []refTimes {
		var out []refTimes
		for _, x := range k {
			out = append(out, refTimes{total: time.Duration(x * refNominal * float64(time.Second))})
		}
		return out
	}
	jobs := []time.Duration{time.Second, time.Second}
	passes := []passRecord{
		{wall: 2 * time.Second, allocMB: 10, refs: refs(1, 2), out: outcome{attempted: 1, jobs: jobs}},
		{wall: 4 * time.Second, allocMB: 10, refs: refs(2, 3), out: outcome{attempted: 1, jobs: jobs}},
		{wall: 4 * time.Second, allocMB: 10, refs: refs(2, 2), out: outcome{attempted: 1, jobs: jobs}},
	}
	res := reduce(passes, []time.Duration{ms(30), ms(40), ms(50)}, false)
	want := map[string]float64{
		"wall_s":         2,
		"jobs_per_s":     1, // 2 jobs in 4 host s is 0.5/s, or 1 per reference second
		"latency_p50_ms": 500,
		"latency_p90_ms": 500,
		"setup_s":        0.020,
		"alloc_mb":       10,
	}
	for k, v := range want {
		if got := res.Metrics[k].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if got := refMedian(passes); math.Abs(got-2*refNominal) > 1e-12 {
		t.Errorf("refMedian = %v, want %v", got, 2*refNominal)
	}
}

// TestReferenceJobCopiesRunTogether runs the reference job on two
// goroutines at once, as the two-goroutine workloads do, so the race
// detector sees the shared chase tables, and checks the split adds up.
func TestReferenceJobCopiesRunTogether(t *testing.T) {
	r := newRefState()
	for _, par := range []int{1, 2} {
		got := r.run(par)
		parts := got.chase + got.cpu + got.fault
		if got.chase <= 0 || got.cpu <= 0 || parts > got.total || parts < got.total*9/10 {
			t.Errorf("run(%d) = %+v: parts %v do not make up the total", par, got, parts)
		}
	}
}
