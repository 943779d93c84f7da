package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
)

// fig1Paper is the paper's Figure 1 pipeline at the BenchmarkFig1a*
// configuration.
var fig1Paper = fig1Shape{NX: 32, MGLevels: 4, Iters: 3, Period: 400}

// fig1Expected pins the exact outputs of fig1_hpcg32. Like the scenario
// goldens, they change only when a change deliberately alters a simulation
// result, and that change must say so; a speed-only change leaves them
// identical.
var fig1Expected = fig1Exact{
	instructions: 87299152,
	cycles:       501021456,
	recorded:     131165,
	records:      131283,
	digest:       "25012cc05ceeffd3",
}

// fig1Exact are a Session run's exact counts and its output digest (PRV,
// PCF and the four CSV series).
type fig1Exact struct {
	instructions, cycles, recorded, records uint64
	digest                                  string
}

var fig1Workload = workload{
	name: "fig1_hpcg32",
	par:  1,
	why:  "the paper's Figure 1 pipeline on the single-thread Session; folding is about half the work, so a fold change shows here",
	config: map[string]any{
		"engine": "Session", "box": "32^3", "mg_levels": fig1Paper.MGLevels, "cg_iterations": fig1Paper.Iters,
		"pebs_period": fig1Paper.Period, "mux": "off", "sampling": "deterministic", "threads": 1,
		"job": "one Figure-1 reproduction: simulate, fold, analyze, encode",
	},
	prepare: func(e *env) (runner, error) {
		return fig1Runner{shape: fig1Paper, want: &fig1Expected}, nil
	},
}

var fig1TwoThreadWorkload = workload{
	name: "fig1_hpcg32_2t",
	par:  2,
	why:  "Figure 1 on the concurrent 2-thread Machine: Team barriers, shared-L3 locking and per-thread folds",
	config: map[string]any{
		"engine": "Machine (concurrent)", "box": "32^3", "mg_levels": fig1Paper.MGLevels, "cg_iterations": fig1Paper.Iters,
		"pebs_period": fig1Paper.Period, "mux": "off", "sampling": "deterministic", "threads": 2,
		"job": "one 2-thread Figure-1 reproduction; not byte-reproducible, so checked for shape only",
	},
	prepare: func(e *env) (runner, error) {
		return fig1Runner{shape: fig1Paper, threads: 2}, nil
	},
}

// fig1Runner sets up Figure-1 passes. threads == 0 runs the Session
// engine; threads >= 1 the concurrent Machine.
type fig1Runner struct {
	shape   fig1Shape
	threads int
	// want, when non-nil, pins the Session run's exact outputs.
	want *fig1Exact
}

func (r fig1Runner) setup(sc scope, _ string) (pass, error) {
	p := &fig1Pass{runner: r, traced: sc.tr != nil}
	t0 := time.Now()
	err := sc.timed("hpcg.setup", func() error {
		var err error
		if r.threads == 0 {
			p.sess, err = setupSession(fig1Config(r.shape.Period), r.shape.params())
		} else {
			p.mach, err = setupMachine(fig1Config(r.shape.Period), r.shape.params(), r.threads)
		}
		return err
	})
	p.setupDur = time.Since(t0)
	return p, err
}

// fig1Pass is one Figure-1 reproduction.
type fig1Pass struct {
	runner fig1Runner
	traced bool
	sess   *stagedSession
	mach   *stagedMachine

	setupDur, simulate, fold, analyze, encode, csv, runDur time.Duration
	steps                                                  []time.Duration
	simAlloc, foldAlloc                                    uint64
	prv, pcf                                               digestWriter
	csvOut                                                 map[string]*digestWriter
}

func (p *fig1Pass) run(sc scope) error {
	t0 := time.Now()
	p.csvOut = map[string]*digestWriter{}
	p.prv = newDigestWriter(p.sess != nil)
	p.pcf = newDigestWriter(p.sess != nil)
	stage := func(name string, d *time.Duration, alloc *uint64, f func(sc scope) error) error {
		if !p.traced {
			return f(sc)
		}
		a0 := allocBytes()
		o := sc.start(name)
		start := time.Now()
		err := f(sc.under(o))
		*d = time.Since(start)
		o.end()
		if alloc != nil {
			*alloc = allocBytes() - a0
		}
		return err
	}
	err := stage("core.simulate", &p.simulate, &p.simAlloc, func(sc scope) error {
		if p.mach != nil {
			return p.mach.simulate()
		}
		if !p.traced {
			return p.sess.simulate(nil)
		}
		return p.sess.simulate(func(step func() (bool, error)) (bool, error) {
			o := sc.start("core.step")
			s0 := time.Now()
			done, err := step()
			p.steps = append(p.steps, time.Since(s0))
			o.end()
			return done, err
		})
	})
	var st fig1Stages = p.sess
	if p.mach != nil {
		st = p.mach
	}
	if err == nil {
		err = stage("folding.fold", &p.fold, &p.foldAlloc, func(scope) error { return st.fold() })
	}
	if err == nil {
		err = stage("report.analyze", &p.analyze, nil, func(scope) error { return st.analyze(io.Discard) })
	}
	if err == nil {
		err = stage("trace.encode", &p.encode, nil, func(scope) error { return st.encodeTrace(&p.prv, &p.pcf) })
	}
	if err == nil {
		err = stage("report.csv", &p.csv, nil, func(scope) error { return st.encodeCSV(p.csvWriter) })
	}
	p.runDur = time.Since(t0)
	return err
}

func (p *fig1Pass) csvWriter(name string) io.Writer {
	w := newDigestWriter(p.sess != nil)
	p.csvOut[name] = &w
	return &w
}

func (p *fig1Pass) close() {
	if p.mach != nil {
		p.mach.close()
	}
}

func (p *fig1Pass) finish() outcome {
	out := outcome{attempted: 1, jobs: []time.Duration{p.runDur}, layer: map[string]float64{}}
	var problems []string
	var counts layerCounts
	if p.sess != nil {
		st := p.sess
		if st.run == nil || st.run.Folded == nil {
			out.fail("Session pass produced no folded run")
			return out
		}
		problems = checkShape(st.run.Paper, true, st.run.MatrixGroup(), st.run.MapGroup(), st.sess.Mon.Registry().ResolutionRate())
		counts = threadCounts(st.sess.Core, st.sess.Hier, st.sess.Mon, st.run.Folded)
		if want := p.runner.want; want != nil {
			got := fig1Exact{
				instructions: counts.instructions, cycles: counts.cycles,
				recorded: counts.recorded, records: counts.records, digest: p.digest(),
			}
			if got != *want {
				problems = append(problems, fmt.Sprintf("exact outputs %+v, want %+v", got, *want))
			}
		}
	} else {
		st := p.mach
		if st.run == nil || len(st.run.Threads) != st.m.NThreads() {
			out.fail("Machine pass produced no folded run per thread")
			return out
		}
		reg := st.m.Primary().Mon.Registry()
		matrix, maps := objectByName(reg.Objects(), "124_GenerateProblem_ref.cpp"), objectByName(reg.Objects(), "205_GenerateProblem_ref.cpp")
		for _, tr := range st.run.Threads {
			for _, msg := range checkShape(tr.Paper, false, matrix, maps, reg.ResolutionRate()) {
				problems = append(problems, fmt.Sprintf("thread %d: %s", tr.Thread, msg))
			}
		}
		for i, th := range st.m.Threads {
			counts.add(threadCounts(th.Core, th.Hier, th.Mon, st.run.Threads[i].Folded))
		}
	}
	if len(problems) > 0 {
		out.fail("%s", strings.Join(problems, "; "))
	}
	if p.traced {
		counts.set(out.layer)
		var csvBytes int64
		for _, w := range p.csvOut {
			csvBytes += w.n
		}
		steps := summarize(millis(p.steps))
		out.layer["hpcg.generate_s"] = p.setupDur.Seconds()
		out.layer["core.simulate_s"] = p.simulate.Seconds()
		out.layer["core.simulate_alloc_mb"] = float64(p.simAlloc) / 1e6
		out.layer["core.step_ms_p50"] = steps.P50
		out.layer["core.step_ms_max"] = steps.Max
		out.layer["core.sim_mips"] = ratio(float64(counts.instructions)/1e6, p.simulate.Seconds())
		out.layer["folding.fold_s"] = p.fold.Seconds()
		out.layer["folding.fold_alloc_mb"] = float64(p.foldAlloc) / 1e6
		out.layer["report.analyze_s"] = p.analyze.Seconds()
		out.layer["report.csv_s"] = p.csv.Seconds()
		out.layer["report.csv_bytes"] = float64(csvBytes)
		out.layer["trace.encode_s"] = p.encode.Seconds()
		out.layer["trace.prv_bytes"] = float64(p.prv.n)
	}
	return out
}

// digest combines the hashes of the PRV, PCF and CSV outputs.
func (p *fig1Pass) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "prv %s\npcf %s\n", p.prv.sum(), p.pcf.sum())
	names := make([]string, 0, len(p.csvOut))
	for k := range p.csvOut {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(h, "%s %s\n", k, p.csvOut[k].sum())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkShape applies the EXPERIMENTS.md shape criteria of Figure 1 to one
// folded thread: at least 5 phases, the paper letters A-E, no stores into
// the matrix, the SpMV (B) bandwidth above both SYMGS sweeps, the 617/89 MB
// object size ratio (6.9, accepted in 5.5-9) and sample resolution 100.0%
// (to the one decimal hpcgrepro prints) with grouping. sweepOrder adds the
// single-thread bandwidth criterion a2 >= a1; the two sweeps differ by ~1%,
// and EXPERIMENTS.md does not ask it of the concurrent multi-thread run,
// whose schedule is not reproducible.
func checkShape(paper []core.PaperPhase, sweepOrder bool, matrix, maps *objects.Object, resolution float64) []string {
	var problems []string
	if len(paper) < 5 {
		problems = append(problems, fmt.Sprintf("%d phases, want >= 5", len(paper)))
	}
	letters := map[byte]bool{}
	bw := map[string]float64{}
	for _, pp := range paper {
		if pp.Label != "-" {
			letters[pp.Label[0]|0x20] = true
		}
		if _, seen := bw[pp.Label]; !seen {
			bw[pp.Label] = pp.Phase.SpanBandwidth
		}
	}
	for _, l := range "abcde" {
		if !letters[byte(l)] {
			problems = append(problems, fmt.Sprintf("paper letter %c missing (labels %v)", l-0x20, phaseLabels(paper)))
		}
	}
	a1, ok1 := bw["a1"]
	a2, ok2 := bw["a2"]
	b, ok3 := bw["B"]
	switch {
	case !ok1 || !ok2 || !ok3 || b <= a1 || b <= a2:
		problems = append(problems, fmt.Sprintf("bandwidths a1=%.0f a2=%.0f B=%.0f MB/s, want B above a1 and a2", a1/1e6, a2/1e6, b/1e6))
	case sweepOrder && a2 < a1:
		problems = append(problems, fmt.Sprintf("bandwidths a1=%.0f a2=%.0f MB/s, want a2 >= a1", a1/1e6, a2/1e6))
	}
	if matrix == nil || maps == nil {
		problems = append(problems, "allocation groups missing")
	} else {
		if matrix.Stores != 0 {
			problems = append(problems, fmt.Sprintf("matrix stores %d, want 0", matrix.Stores))
		}
		if r := float64(matrix.Bytes) / float64(maps.Bytes); r < 5.5 || r > 9 {
			problems = append(problems, fmt.Sprintf("object size ratio %.2f, want ~6.9", r))
		}
	}
	if resolution < 0.9995 {
		problems = append(problems, fmt.Sprintf("sample resolution %.2f%%, want 100.0%% with grouping", 100*resolution))
	}
	return problems
}

func objectByName(objs []*objects.Object, name string) *objects.Object {
	for _, o := range objs {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// digestWriter counts the bytes written through it and, when hashing,
// their SHA-256: the encode stage writes into these instead of files.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter(hashing bool) digestWriter {
	if hashing {
		return digestWriter{h: sha256.New()}
	}
	return digestWriter{}
}

func (d *digestWriter) Write(b []byte) (int, error) {
	if d.h != nil {
		d.h.Write(b)
	}
	d.n += int64(len(b))
	return len(b), nil
}

func (d *digestWriter) sum() string {
	if d.h == nil {
		return fmt.Sprintf("%d bytes", d.n)
	}
	return fmt.Sprintf("%d bytes %x", d.n, d.h.Sum(nil)[:8])
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
