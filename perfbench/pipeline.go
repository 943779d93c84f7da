package main

// This file is the one place the benchmark composes core's Figure-1
// pipeline out of its public stage calls. core.RunHPCG (Session) and
// core.RunHPCGParallel (Machine) run the same calls back to back; here they
// are split at the stage boundaries so each stage can be timed from
// outside. TestStagedSessionMatchesRunHPCG and
// TestStagedMachineMatchesRunHPCGParallel pin the equivalence, so a change
// to core's entry points only needs this file adapted.

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hpcg"
	"repro/internal/pebs"
	"repro/internal/report"
)

// fig1Config is the deterministic monitoring setup of the BenchmarkFig1a*
// figure benches: loads and stores sampled together (mux off), a fixed
// sampling period and no randomized gaps.
func fig1Config(period uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Monitor.MuxQuantumNs = 0
	cfg.Monitor.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.Monitor.PEBS.Period = period
	cfg.Monitor.PEBS.Randomize = false
	cfg.Monitor.PEBS.LatencyThreshold = 0
	return cfg
}

// fig1Shape is one Figure-1 configuration.
type fig1Shape struct {
	NX, MGLevels, Iters int
	Period              uint64
}

func (f fig1Shape) params() hpcg.Params {
	return hpcg.Params{NX: f.NX, NY: f.NX, NZ: f.NX, MGLevels: f.MGLevels, MaxIters: f.Iters}
}

// fig1Stages are the stages after simulation, which both engines share.
type fig1Stages interface {
	fold() error
	analyze(w io.Writer) error
	encodeTrace(prv, pcf io.Writer) error
	encodeCSV(out func(name string) io.Writer) error
}

// stagedSession is the single-thread Session pipeline of core.RunHPCG.
type stagedSession struct {
	sess    *core.Session
	problem *hpcg.Problem
	run     *core.HPCGRun
}

// setupSession builds the stack and generates the problem: the
// unmonitored setup phase (hpcg.SetupBinary + hpcg.Generate).
func setupSession(cfg core.Config, params hpcg.Params) (*stagedSession, error) {
	s, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := hpcg.SetupBinary(s.Bin); err != nil {
		return nil, err
	}
	problem, err := hpcg.Generate(params, s.Core, s.Mon, s.Bin)
	if err != nil {
		return nil, err
	}
	return &stagedSession{sess: s, problem: problem}, nil
}

// simulate runs CG under monitoring one iteration at a time; step, when
// non-nil, wraps each CGRun.Step call (the benchmark times them).
func (st *stagedSession) simulate(step func(func() (bool, error)) (bool, error)) error {
	if step == nil {
		step = func(f func() (bool, error)) (bool, error) { return f() }
	}
	st.sess.Mon.Start()
	cgr, err := st.problem.NewCGRun()
	if err != nil {
		return err
	}
	for {
		done, err := step(cgr.Step)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	st.sess.Mon.Stop()
	st.run = &core.HPCGRun{Session: st.sess, Problem: st.problem, CG: cgr.Result()}
	return nil
}

// fold folds the CG_iteration region.
func (st *stagedSession) fold() error {
	folded, err := st.sess.Fold(st.problem.RegionIteration)
	if err != nil {
		return err
	}
	st.run.Folded = folded
	return nil
}

// analyze labels the paper phases and renders the Figure 1 report and the
// bandwidth table, as hpcgrepro prints them.
func (st *stagedSession) analyze(w io.Writer) error {
	st.run.Paper = core.LabelPaperPhases(st.run.Folded, st.sess.FuncOf)
	if err := st.run.Figure1().Render(w); err != nil {
		return err
	}
	for _, row := range st.run.BandwidthTable() {
		if _, err := fmt.Fprintf(w, "%-6s %-10s %14.0f\n", row.Label, row.Direction, row.MBps); err != nil {
			return err
		}
	}
	return nil
}

// encodeTrace writes the PRV/PCF pair.
func (st *stagedSession) encodeTrace(prv, pcf io.Writer) error {
	return st.sess.WriteTrace(prv, pcf)
}

// csvNames are the CSV series hpcgrepro -out writes, in a fixed order.
var csvNames = []string{"fig1a_lines.csv", "fig1b_mem.csv", "fig1c_counters.csv", "phases.csv"}

// encodeCSV writes the CSV series named by csvNames; out returns the writer
// for each.
func (st *stagedSession) encodeCSV(out func(name string) io.Writer) error {
	fig := st.run.Figure1()
	reg := st.sess.Mon.Registry()
	objectOf := func(addr uint64) string {
		if o, ok := reg.Resolve(addr); ok {
			return o.Name
		}
		return ""
	}
	writers := []func(io.Writer) error{
		func(w io.Writer) error { return report.WriteLinesCSV(w, fig) },
		func(w io.Writer) error { return report.WriteMemCSV(w, fig, objectOf) },
		func(w io.Writer) error { return report.WriteCountersCSV(w, fig.Folded) },
		func(w io.Writer) error { return report.WritePhasesCSV(w, fig.Folded) },
	}
	for i, write := range writers {
		if err := write(out(csvNames[i])); err != nil {
			return err
		}
	}
	return nil
}

// stagedMachine is the n-thread Machine pipeline of core.RunHPCGParallel.
type stagedMachine struct {
	m       *core.Machine
	problem *hpcg.Problem
	team    *hpcg.Team
	run     *core.MachineHPCGRun
}

// setupMachine builds the machine, generates the problem on thread 1,
// registers the regions on the other threads and starts the worker team.
func setupMachine(cfg core.Config, params hpcg.Params, threads int) (*stagedMachine, error) {
	m, err := core.NewMachine(cfg, threads)
	if err != nil {
		return nil, err
	}
	if err := hpcg.SetupBinary(m.Bin); err != nil {
		return nil, err
	}
	primary := m.Primary()
	problem, err := hpcg.Generate(params, primary.Core, primary.Mon, m.Bin)
	if err != nil {
		return nil, err
	}
	for _, th := range m.Threads[1:] {
		if err := problem.RegisterRegions(th.Mon); err != nil {
			return nil, err
		}
	}
	team, err := m.Team()
	if err != nil {
		return nil, err
	}
	return &stagedMachine{m: m, problem: problem, team: team}, nil
}

// close stops the worker team.
func (st *stagedMachine) close() { st.team.Close() }

// simulate runs the domain-partitioned CG across the team under monitoring.
func (st *stagedMachine) simulate() error {
	st.m.StartAll()
	cg, err := st.problem.RunCGParallel(st.team)
	if err != nil {
		return err
	}
	st.m.StopAll()
	st.run = &core.MachineHPCGRun{Machine: st.m, Problem: st.problem, CG: cg}
	return nil
}

// fold folds each thread's CG_iteration instances and labels its phases.
func (st *stagedMachine) fold() error {
	for t := 1; t <= st.m.NThreads(); t++ {
		folded, err := st.m.Fold(st.problem.RegionIteration, t)
		if err != nil {
			return err
		}
		st.run.Threads = append(st.run.Threads, core.MachineThreadRun{
			Thread: t,
			Folded: folded,
			Paper:  core.LabelPaperPhases(folded, st.m.FuncOf),
		})
	}
	return nil
}

// analyze renders the cross-thread report.
func (st *stagedMachine) analyze(w io.Writer) error {
	return st.run.Figure().Render(w)
}

// encodeTrace writes the merged PRV/PCF pair.
func (st *stagedMachine) encodeTrace(prv, pcf io.Writer) error {
	return st.m.WriteTrace(prv, pcf)
}

// encodeCSV writes one phase table per thread.
func (st *stagedMachine) encodeCSV(out func(name string) io.Writer) error {
	for _, tr := range st.run.Threads {
		if err := report.WritePhasesCSV(out(fmt.Sprintf("phases_t%d.csv", tr.Thread)), tr.Folded); err != nil {
			return err
		}
	}
	return nil
}

// phaseLabels lists a folded run's paper labels in phase order.
func phaseLabels(paper []core.PaperPhase) []string {
	out := make([]string, len(paper))
	for i, pp := range paper {
		out[i] = pp.Label
	}
	return out
}
