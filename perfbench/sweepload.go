package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/machspec"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// sweepScenarios are the scaled synthetic workloads machine_sweep runs,
// each at 1 and 4 threads (the 4-thread runs use the sequential Machine
// schedule). STREAM and GUPS have working sets well above the 2.5 MiB L3;
// the pointer chase and the matmul fit in cache. Iterations are sized so
// no point costs more than about a sixth of the pass (the slowest point
// sets the pass tail) and the point times spread without a gap at their
// median.
var sweepScenarios = []struct {
	name, desc string
	iters      int
	period     uint64
	build      func() workloads.PartitionedWorkload
}{
	{"bench_stream", "STREAM triad, 256K doubles per array (6 MiB)", 3, 200,
		func() workloads.PartitionedWorkload { return workloads.NewStream(1 << 18) }},
	{"bench_gups", "GUPS random updates over a 512K-word table (4 MiB)", 6, 200,
		func() workloads.PartitionedWorkload { return workloads.NewRandomAccess(1<<19, 1<<14, 3) }},
	{"bench_chase", "pointer chase over an 8K-node cycle (in cache)", 32, 100,
		func() workloads.PartitionedWorkload { return workloads.NewPointerChase(1<<13, 5) }},
	{"bench_matmul", "32x32 dense multiply (in cache)", 8, 150,
		func() workloads.PartitionedWorkload { return workloads.NewMatMul(32) }},
}

var sweepThreads = []int{1, 4}

// haswell2s is the 2-socket machine spec file, relative to the repository
// root.
const haswell2s = "examples/sweeps/haswell_2s.json"

var registerOnce = sync.OnceValue(registerSweepScenarios)

// registerSweepScenarios adds the benchmark's scenarios to the registry. The
// registry is not locked, so this runs once, before anything concurrent.
func registerSweepScenarios() error {
	for _, s := range sweepScenarios {
		for _, t := range sweepThreads {
			err := scenario.Register(scenario.Scenario{
				Name:        fmt.Sprintf("%s_%dt", s.name, t),
				Description: s.desc,
				Hierarchy:   "haswell",
				Threads:     t, Iters: s.iters, Period: s.period,
				Workload: s.build,
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func sweepScenarioNames() []string {
	var out []string
	for _, s := range sweepScenarios {
		for _, t := range sweepThreads {
			out = append(out, fmt.Sprintf("%s_%dt", s.name, t))
		}
	}
	return out
}

var machineSweepWorkload = workload{
	name: "machine_sweep",
	par:  sweepJobs,
	why:  "cold-cache sweep of workload x machine x placement; memhier does most of the work and folding little",
	config: map[string]any{
		"jobs":       2,
		"scenarios":  sweepScenarioNames(),
		"machines":   []string{"haswell", "small", "noprefetch", haswell2s + " (first-touch, interleave)"},
		"sampling":   "randomized gaps, seed drawn from the workload seed",
		"cache":      "fresh sweep cache directory every pass (cold)",
		"job":        "one sweep point",
		"point_list": "expanded from two sweep files in cmd/sweep order (machines outermost)",
	},
	prepare: func(e *env) (runner, error) {
		if err := registerOnce(); err != nil {
			return nil, err
		}
		return &sweepRunner{env: e, files: sweepFiles(e.seed), digests: map[string]string{}}, nil
	},
}

// sweepFiles derives the sweep from the seed: the seed picks the sampling
// seed every point carries. The points run in the order cmd/sweep expands
// them (machines outermost), so every seed does the same work in the same
// order.
func sweepFiles(seed int64) []*sweep.File {
	samplingSeed := rand.New(rand.NewSource(seed)).Int63()
	randomize := true
	sampling := []machspec.Sampling{{Randomize: &randomize, Seed: &samplingSeed}}
	names := sweepScenarioNames()
	return []*sweep.File{
		{Version: sweep.Version, Machines: []string{"haswell", "small", "noprefetch"}, Scenarios: names, Sampling: sampling},
		{Version: sweep.Version, Machines: []string{haswell2s}, Scenarios: names, Placements: []string{"first-touch", "interleave"}, Sampling: sampling},
	}
}

// expandSweep expands the sweep files against the repository root.
func expandSweep(root string, files []*sweep.File) ([]sweep.Point, error) {
	var all []sweep.Point
	for _, f := range files {
		pts, err := f.Expand(root)
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	return all, nil
}

// sweepRunner keeps, across passes, the digest each point key produced
// first: a later pass must reproduce it.
type sweepRunner struct {
	env     *env
	files   []*sweep.File
	digests map[string]string
}

func (r *sweepRunner) setup(sc scope, dir string) (pass, error) {
	p := &sweepPass{runner: r, dir: dir}
	t0 := time.Now()
	err := sc.timed("sweep.expand", func() error {
		var err error
		if p.points, err = expandSweep(r.env.root, r.files); err != nil {
			return err
		}
		p.cache, err = sweep.OpenCache(filepath.Join(p.dir, "cache"))
		return err
	})
	p.expand = time.Since(t0)
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// sweepPass is one cold-cache sweep.Runner pass over every point.
type sweepPass struct {
	runner  *sweepRunner
	points  []sweep.Point
	dir     string
	cache   *sweep.Cache
	results []sweep.Result
	summary sweep.Summary
	expand  time.Duration
	wall    time.Duration
}

const sweepJobs = 2

func (p *sweepPass) run(sc scope) error {
	t0 := time.Now()
	err := sc.timed("sweep.run", func() error {
		var err error
		runner := &sweep.Runner{Jobs: sweepJobs, Cache: p.cache}
		p.results, p.summary, err = runner.Run(p.points)
		return err
	})
	p.wall = time.Since(t0)
	return err
}

func (p *sweepPass) close() {}

func (p *sweepPass) finish() outcome {
	out := outcome{attempted: len(p.points), layer: map[string]float64{}}
	var counts layerCounts
	var elapsed []time.Duration
	for _, res := range p.results {
		label := res.Point.Label()
		switch {
		case res.Err != nil:
			out.fail("%s: %v", label, res.Err)
			continue
		case res.Source != sweep.SourceSimulated:
			out.fail("%s: source %s, want simulated on a cold cache", label, res.Source)
			continue
		case res.Parsed == nil || res.Parsed.Partial:
			out.fail("%s: missing or partial metrics", label)
			continue
		}
		sum := sha256.Sum256(res.Metrics)
		d := hex.EncodeToString(sum[:8])
		if first, ok := p.runner.digests[res.Point.Key]; !ok {
			p.runner.digests[res.Point.Key] = d
		} else if first != d {
			out.fail("%s: metrics digest %s, first pass had %s", label, d, first)
			continue
		}
		counts.add(metricsCounts(res.Parsed))
		elapsed = append(elapsed, res.Elapsed)
	}
	out.jobs = elapsed
	busy := 0.0
	for _, d := range elapsed {
		busy += d.Seconds()
	}
	run := summarize(seconds(elapsed))
	counts.set(out.layer)
	out.layer["core.simulate_s"] = busy
	out.layer["core.sim_mips"] = ratio(float64(counts.instructions)/1e6, busy)
	out.layer["scenario.run_s_p50"] = run.P50
	out.layer["scenario.run_s_max"] = run.Max
	out.layer["sweep.expand_s"] = p.expand.Seconds()
	out.layer["sweep.worker_busy_ratio"] = workerBusyRatio(elapsed, sweepJobs, p.wall)
	out.layer["sweep.simulated"] = float64(p.summary.Simulated)
	out.layer["sweep.cache_hits"] = float64(p.summary.CacheHits)
	out.layer["sweep.errors"] = float64(p.summary.Errors)
	return out
}

// outputDigest summarizes the per-point digests of a sweep in key order.
func (r *sweepRunner) outputDigest() string {
	keys := make([]string, 0, len(r.digests))
	for k := range r.digests {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, r.digests[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
