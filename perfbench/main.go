// Command perfbench is the repository benchmark. It runs one workload from
// a single process for a fixed measuring time, checks every output the
// workload produces, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 5.1, "unit": "s"}, ...}}
//
// Every layer is measured from outside, by timing the benchmark's own calls
// into each module's public functions; exact simulated counts come from the
// layers' public accessors. See README.md beside this file for the
// workloads, the metric map and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// DefaultSeed is the workload seed for routine runs; HeldOutSeed is kept
// back for confirming a claimed gain on inputs the change was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// scope is where a call's span goes: the tracer (nil when untraced), the
// parent span and the group.
type scope struct {
	tr     *tracer
	parent uint64
	group  uint64
}

func (s scope) start(name string) *openSpan { return s.tr.start(name, s.parent, s.group) }

// under is the scope of o's children.
func (s scope) under(o *openSpan) scope { return scope{tr: s.tr, parent: o.id(), group: s.group} }

// timed runs f inside a span named name.
func (s scope) timed(name string, f func() error) error {
	o := s.start(name)
	err := f()
	o.end()
	return err
}

// workload is one benchmark input set. prepare runs once per process,
// before anything is timed; it derives the inputs from the seed.
type workload struct {
	name string
	why  string
	// config describes the workload's fixed configuration for the report.
	config map[string]any
	// par is how many goroutines the workload keeps busy; the reference job
	// runs as many copies at once.
	par     int
	prepare func(env *env) (runner, error)
}

// runner builds passes. The time setup takes is a setup_s sample. dir is
// a fresh empty directory for the pass's files, made before the timing
// starts and removed after the pass is closed: naming and cleaning
// per-pass directories is the benchmark's bookkeeping, not work a user's
// set-up does.
type runner interface {
	setup(sc scope, dir string) (pass, error)
}

// pass is one timed unit of work: run is the wall_s sample; finish checks
// the outputs and close releases the pass (neither is timed).
type pass interface {
	run(sc scope) error
	finish() outcome
	close()
}

// outcome is what a finished pass reports.
type outcome struct {
	attempted, failed int
	failures          []string
	// jobs are the per-job latencies of the pass.
	jobs []time.Duration
	// layer holds per-layer metric values; only traced passes are reported.
	layer map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// env is what a workload may use besides its seed.
type env struct {
	seed    int64
	root    string // repository root (holds examples/sweeps)
	scratch string // per-run scratch directory inside the build directory
	traced  bool
}

// allWorkloads are the runnable workloads. BENCHMARK.json gates all but
// fig1_hpcg32_2t: its two barrier-synchronized threads fill both CPUs of
// a 2-CPU host, so any host interference stalls the team, and its run-to-run
// spread exceeded the largest bound the gate allows. It stays runnable for
// work on the concurrent engine, report-only.
var allWorkloads = []workload{fig1Workload, machineSweepWorkload, simdMixedWorkload, fig1TwoThreadWorkload}

// buildDir holds everything a run leaves behind, relative to the repository
// root the benchmark runs from.
const buildDir = ".bench_build"

// commit is set by run.sh at link time.
var commit = "unknown"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"), or all for every gated workload in turn")
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed for confirming claims: %d)", DefaultSeed, HeldOutSeed))
	secs := fs.Float64("seconds", 30, "measuring time per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := gatedWorkloads()
	if *name != "all" {
		w, ok := findWorkload(*name)
		ws = []workload{w}
		if !ok {
			ws = nil
		}
	}
	if len(ws) == 0 || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s or all), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	for _, w := range ws {
		if err := runWorkload(w, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// runWorkload measures one workload and prints its report, ending with the
// result line.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool, stdout io.Writer) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: seed, root: ".", scratch: scratch, traced: traced}
	res, tr, err := measure(w, e, budget, stdout)
	if err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, w.name)
	}
	return out
}

// gatedWorkloads are the workloads BENCHMARK.json lists.
func gatedWorkloads() []workload {
	return slices.DeleteFunc(slices.Clone(allWorkloads), func(w workload) bool { return w.name == fig1TwoThreadWorkload.name })
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passRecord is one measured pass.
type passRecord struct {
	traced      bool
	setup, wall time.Duration
	allocMB     float64
	gcCycles    uint32
	gcPauseMs   float64
	refs        []refTimes // reference jobs right before and after the pass
	out         outcome
	spans       []span
}

// measure runs a warm-up pass, then passes of w until the measuring time is
// used up (at least minPasses), then extra set-ups until setup_s has enough
// samples, and reduces them to the run's metrics. In a traced run passes
// alternate between traced and untraced, starting traced, so the tracing
// overhead is measured within the run.
func measure(w workload, e *env, budget time.Duration, stdout io.Writer) (*result, *tracer, error) {
	minPasses := 3
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	printContext(stdout, w, e, budget)
	r, err := w.prepare(e)
	if err != nil {
		return nil, nil, err
	}
	host := newRefState()
	// ref runs the reference jobs of one side of a pass, after collecting
	// the garbage the pass left, so the jobs time the host alone.
	ref := func() []refTimes {
		runtime.GC()
		var out []refTimes
		for range refReps {
			out = append(out, host.run(w.par))
		}
		return out
	}

	var passes []passRecord
	var setups []time.Duration
	var passCost []time.Duration
	var allSpans []span
	// The first pass of a process is slower (the heap grows from nothing,
	// code pages fault in); it runs before the measuring time starts, so
	// every measured pass starts warm and a traced run compares like with
	// like.
	if _, err := runPass(r, e.scratch, ref, nil, 0); err != nil {
		return nil, nil, fmt.Errorf("warm-up pass: %w", err)
	}
	start := time.Now()
	if e.traced {
		minPasses = 4
	}
	for i := 0; ; i++ {
		if i >= minPasses {
			next := time.Duration(median(seconds(passCost)) * float64(time.Second))
			if time.Since(start)+next > budget {
				break
			}
		}
		t0 := time.Now()
		traced := e.traced && i%2 == 0
		var ptr *tracer
		if traced {
			ptr = tr
		}
		rec, err := runPass(r, e.scratch, ref, ptr, uint64(i+1))
		if err != nil {
			return nil, nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		rec.traced = traced
		if traced {
			rec.spans = tr.drain()
			allSpans = append(allSpans, rec.spans...)
		}
		passes = append(passes, rec)
		setups = append(setups, rec.setup)
		passCost = append(passCost, time.Since(t0))
	}
	// Set-up is short next to a pass on every workload; repeat it alone so
	// its median rests on enough samples. A sub-millisecond set-up is mostly
	// system calls whose time scatters widely, so it gets many more.
	for len(setups) < 15 || (len(setups) < 201 && median(seconds(setups)) < 0.02) {
		d, err := setupOnly(r, e.scratch)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
	}
	if tr != nil {
		tr.spans = allSpans
	}
	if d, ok := r.(interface{ outputDigest() string }); ok {
		fmt.Fprintf(stdout, "output digest (per-key metrics of every point): %s\n", d.outputDigest())
	}
	res := reduce(passes, setups, e.traced)
	printReport(stdout, passes, setups, res, e.traced)
	return res, tr, nil
}

// runPass sets up and runs one pass between two sets of reference jobs.
// The collection before the first set gives every pass the same starting
// heap; it is not timed.
func runPass(r runner, scratch string, ref func() []refTimes, tr *tracer, group uint64) (passRecord, error) {
	dir, err := os.MkdirTemp(scratch, "pass-")
	if err != nil {
		return passRecord{}, err
	}
	defer os.RemoveAll(dir)
	refBefore := ref()
	sc := scope{tr: tr, group: group}
	root := sc.start("bench.pass")
	in := sc.under(root)
	t0 := time.Now()
	p, err := r.setup(in, dir)
	setup := time.Since(t0)
	if err != nil {
		return passRecord{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	runErr := p.run(in)
	wall := time.Since(t1)
	runtime.ReadMemStats(&ms1)
	root.end()
	out := p.finish()
	p.close()
	refAfter := ref()
	if runErr != nil {
		out.fail("run: %v", runErr)
	}
	return passRecord{
		setup:     setup,
		wall:      wall,
		allocMB:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		gcCycles:  ms1.NumGC - ms0.NumGC,
		gcPauseMs: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		refs:      append(refBefore, refAfter...),
		out:       out,
	}, nil
}

// setupOnly times one set-up and releases it unrun.
func setupOnly(r runner, scratch string) (time.Duration, error) {
	dir, err := os.MkdirTemp(scratch, "pass-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t0 := time.Now()
	p, err := r.setup(scope{}, dir)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	p.close()
	return d, nil
}

// drain returns the spans recorded since the last drain and forgets them.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// reduce turns the passes into the run's metrics: medians over passes for
// per-pass values, percentiles over all jobs for latencies. The timed
// end-to-end metrics are in reference seconds (see hostref.go).
func reduce(passes []passRecord, setups []time.Duration, traced bool) *result {
	res := &result{Metrics: map[string]metricValue{}}
	var walls, allocs, rates []float64
	var jobs []time.Duration
	for _, p := range passes {
		res.Attempted += p.out.attempted
		res.Failed += p.out.failed
		if traced && p.traced {
			continue
		}
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, p.allocMB)
		rates = append(rates, ratio(float64(len(p.out.jobs)), p.wall.Seconds()))
		jobs = append(jobs, p.out.jobs...)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.Name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("perfbench: unknown metric " + name)
	}
	ref := refMedian(passes)
	if !traced {
		scale := ratio(refNominal, ref) // host seconds to reference seconds
		lat := summarize(millis(jobs))
		set(endToEnd, "setup_s", median(seconds(setups))*scale)
		set(endToEnd, "wall_s", median(walls)*scale)
		set(endToEnd, "alloc_mb", median(allocs))
		set(endToEnd, "peak_rss_mb", peakRSSMB())
		set(endToEnd, "jobs_per_s", ratio(median(rates), scale))
		set(endToEnd, "latency_p50_ms", lat.P50*scale)
		set(endToEnd, "latency_p90_ms", lat.P90*scale)
		return res
	}
	layer := map[string][]float64{}
	var tracedWall []float64
	for _, p := range passes {
		if !p.traced {
			continue
		}
		tracedWall = append(tracedWall, p.wall.Seconds())
		for k, v := range p.out.layer {
			layer[k] = append(layer[k], v)
		}
		layer["go.gc_cycles"] = append(layer["go.gc_cycles"], float64(p.gcCycles))
		layer["go.gc_pause_ms"] = append(layer["go.gc_pause_ms"], p.gcPauseMs)
		self := selfTimes(p.spans)
		for _, s := range spanNames {
			layer[selfMetric(s)] = append(layer[selfMetric(s)], self[s].Seconds())
		}
	}
	for _, d := range perLayer {
		set(perLayer, d.Name, median(layer[d.Name]))
	}
	set(perLayer, "harness.traced_wall_s", median(tracedWall))
	set(perLayer, "harness.untraced_wall_s", median(walls))
	set(perLayer, "harness.trace_overhead_s", median(tracedWall)-median(walls))
	set(perLayer, "harness.ref_job_s", ref)
	return res
}

// refMedian is the median time, in seconds, of the reference jobs run
// around the measured passes: the run's host speed.
func refMedian(passes []passRecord) float64 {
	var v []float64
	for _, p := range passes {
		for _, r := range p.refs {
			v = append(v, r.total.Seconds())
		}
	}
	return median(v)
}

// printReport prints the human-readable table above the result line.
func printReport(w io.Writer, passes []passRecord, setups []time.Duration, res *result, traced bool) {
	nUntraced, nTraced, nJobs := 0, 0, 0
	for _, p := range passes {
		if p.traced {
			nTraced++
		} else {
			nUntraced++
			nJobs += len(p.out.jobs)
		}
		for _, f := range p.out.failures {
			fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
		}
	}
	fmt.Fprintf(w, "passes: %d untraced, %d traced; set-ups timed: %d; jobs in untraced passes: %d\n",
		nUntraced, nTraced, len(setups), nJobs)
	printHost(w, passes, setups)
	var walls []string
	for _, p := range passes {
		tag := ""
		if p.traced {
			tag = "t"
		}
		walls = append(walls, fmt.Sprintf("%.3f%s", p.wall.Seconds(), tag))
	}
	fmt.Fprintf(w, "wall_s by pass (t: traced): %s\n", strings.Join(walls, " "))
	var refs []string
	for _, p := range passes {
		for _, r := range p.refs {
			refs = append(refs, fmt.Sprintf("%.1f", float64(r.total)/float64(time.Millisecond)))
		}
	}
	fmt.Fprintf(w, "reference job ms, %d before and %d after each pass: %s\n", refReps, refReps, strings.Join(refs, " "))
	fmt.Fprintf(w, "checks: %d attempted, %d failed, error_rate %.4g\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	samples := map[string]int{
		"setup_s": len(setups), "wall_s": nUntraced, "alloc_mb": nUntraced, "peak_rss_mb": 1,
		"jobs_per_s": nUntraced, "latency_p50_ms": nJobs, "latency_p90_ms": nJobs,
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "%-28s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		n := samples[d.Name]
		if traced {
			n = nTraced
		}
		fmt.Fprintf(w, "%-28s %16.6g  %-6s n=%d\n", d.Name, res.Metrics[d.Name].Value, d.Unit, n)
	}
	if traced {
		printStages(w, passes)
	}
}

// printHost prints the run's host speed, the reference job's split by kind
// of work, and the host-second figures that the reference-second metrics
// were scaled from.
func printHost(w io.Writer, passes []passRecord, setups []time.Duration) {
	var refs []refTimes
	var walls []float64
	for _, p := range passes {
		refs = append(refs, p.refs...)
		if !p.traced {
			walls = append(walls, p.wall.Seconds())
		}
	}
	refMs := func(f func(refTimes) time.Duration) float64 {
		var v []float64
		for _, r := range refs {
			v = append(v, float64(f(r))/float64(time.Millisecond))
		}
		return median(v)
	}
	fmt.Fprintf(w, "host speed: reference job %.2f ms (median of %d; chase %.2f, cpu %.2f, fault %.2f); a reference second is %.4g reference jobs\n",
		refMs(func(r refTimes) time.Duration { return r.total }), len(refs),
		refMs(func(r refTimes) time.Duration { return r.chase }), refMs(func(r refTimes) time.Duration { return r.cpu }),
		refMs(func(r refTimes) time.Duration { return r.fault }), 1/refNominal)
	su := millis(setups)
	fmt.Fprintf(w, "host seconds: untraced wall_s median %.4f; setup ms p10 %.4g p50 %.4g p90 %.4g\n",
		median(walls), quantile(su, 0.1), median(su), quantile(su, 0.9))
}

// printStages prints the self-time table of the first traced pass: each
// span's self time and share of the pass, which together account for it.
func printStages(w io.Writer, passes []passRecord) {
	for _, p := range passes {
		if !p.traced || len(p.spans) == 0 {
			continue
		}
		self := selfTimes(p.spans)
		var total time.Duration
		for _, s := range p.spans {
			if s.Name == "bench.pass" {
				total += s.dur()
			}
		}
		names := make([]string, 0, len(self))
		for k := range self {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		fmt.Fprintf(w, "stage self times, first traced pass (%.3f s):\n", total.Seconds())
		var sum time.Duration
		for _, k := range names {
			sum += self[k]
			fmt.Fprintf(w, "  %-16s %10.4f s  %5.1f%%\n", k, self[k].Seconds(), 100*ratio(self[k].Seconds(), total.Seconds()))
		}
		fmt.Fprintf(w, "  %-16s %10.4f s  (bench.pass is the harness's own share)\n", "sum", sum.Seconds())
		return
	}
}
