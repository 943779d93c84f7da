package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hpcg"
	"repro/internal/numa"
	"repro/internal/workloads"
)

// TestMachineSingleThreadIdenticalToSession pins the one HPCG step driver
// to the concurrent team solve: RunHPCG (CGRun.Step one iteration at a
// time on the Session's 1-core Machine) must be byte-identical to
// RunHPCGParallel's team-dispatched solve on one worker — same trace
// records, cycles, PMU totals, cache statistics, PEBS stats, page
// placement, folded samples, paper labels and CG numerics — flat and
// NUMA-routed, fast and reference paths.
func TestMachineSingleThreadIdenticalToSession(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  func() Config
	}{
		{"randomized-mux", func() Config { cfg, _ := comparableConfigs(); return cfg }},
		{"deterministic", testConfig},
		{"numa-ft", func() Config { return numaConfig(2, numa.FirstTouch) }},
		{"numa-il", func() Config { return numaConfig(2, numa.Interleave) }},
		{"numa-il-reference", func() Config { cfg := numaConfig(2, numa.Interleave); cfg.Reference = true; return cfg }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			params := hpcg.Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3}
			sess, err := RunHPCG(mode.cfg(), params)
			if err != nil {
				t.Fatal(err)
			}
			mach, err := RunHPCGParallel(nil, mode.cfg(), params, 1)
			if err != nil {
				t.Fatal(err)
			}
			st, mt := sess.Session.Primary(), mach.Machine.Primary()

			sRecs, mRecs := st.Mon.Records(), mt.Mon.Records()
			if len(sRecs) != len(mRecs) {
				t.Fatalf("record count: step %d, team %d", len(sRecs), len(mRecs))
			}
			for i := range sRecs {
				if !reflect.DeepEqual(sRecs[i], mRecs[i]) {
					t.Fatalf("record %d differs:\nstep: %+v\nteam: %+v", i, sRecs[i], mRecs[i])
				}
			}
			if a, b := st.Core.Cycles(), mt.Core.Cycles(); a != b {
				t.Errorf("cycles: step %d, team %d", a, b)
			}
			if a, b := st.Core.PMU().TrueSnapshot(), mt.Core.PMU().TrueSnapshot(); a != b {
				t.Errorf("PMU totals: step %v, team %v", a, b)
			}
			if a, b := st.Hier.Levels(), mt.Hier.Levels(); a != b {
				t.Fatalf("levels: step %d, team %d", a, b)
			}
			for i := 0; i < mt.Hier.Levels(); i++ {
				if a, b := st.Hier.LevelStats(i), mt.Hier.LevelStats(i); a != b {
					t.Errorf("level %d stats: step %+v, team %+v", i, a, b)
				}
			}
			if a, b := st.Hier.DRAMAccesses(), mt.Hier.DRAMAccesses(); a != b {
				t.Errorf("DRAM accesses: step %d, team %d", a, b)
			}
			if a, b := st.Hier.RemoteDRAMAccesses(), mt.Hier.RemoteDRAMAccesses(); a != b {
				t.Errorf("remote DRAM accesses: step %d, team %d", a, b)
			}
			if a, b := st.Mon.Engine().Stats(), mt.Mon.Engine().Stats(); a != b {
				t.Errorf("PEBS stats: step %+v, team %+v", a, b)
			}
			if p := sess.Session.Placement; p != nil {
				if a, b := p.Stats(), mach.Machine.Placement.Stats(); !reflect.DeepEqual(a, b) {
					t.Errorf("placement stats: step %+v, team %+v", a, b)
				}
			}

			// Folded output and paper labels agree.
			sf, mf := sess.Folded, mach.Threads[0].Folded
			if len(sf.Mem) == 0 || len(sf.Mem) != len(mf.Mem) {
				t.Fatalf("folded samples: step %d, team %d", len(sf.Mem), len(mf.Mem))
			}
			for i := range sf.Mem {
				if sf.Mem[i] != mf.Mem[i] {
					t.Fatalf("folded sample %d differs: %+v vs %+v", i, sf.Mem[i], mf.Mem[i])
				}
			}
			if !reflect.DeepEqual(sf.Phases, mf.Phases) {
				t.Errorf("phases differ: %+v vs %+v", sf.Phases, mf.Phases)
			}
			if !reflect.DeepEqual(sf.MIPS(), mf.MIPS()) {
				t.Error("MIPS curves differ")
			}
			sl := labels(sess)
			ml := make([]string, len(mach.Threads[0].Paper))
			for i, pp := range mach.Threads[0].Paper {
				ml[i] = pp.Label
			}
			if !reflect.DeepEqual(sl, ml) {
				t.Errorf("paper labels differ: %v vs %v", sl, ml)
			}

			// CG numerics are bit-identical with one worker.
			if !reflect.DeepEqual(sess.CG.Residuals, mach.CG.Residuals) {
				t.Errorf("residuals differ: %v vs %v", sess.CG.Residuals, mach.CG.Residuals)
			}
			if sess.CG.FinalError != mach.CG.FinalError {
				t.Errorf("final error differs: %g vs %g", sess.CG.FinalError, mach.CG.FinalError)
			}
		})
	}
}

// machineTestParams is the 4-thread integration scale: large enough that
// every thread's block shows the full per-iteration phase structure.
func machineTestParams() hpcg.Params {
	return hpcg.Params{NX: 16, NY: 16, NZ: 16, MGLevels: 2, MaxIters: 4}
}

func machineTestConfig() Config {
	cfg := testConfig()
	// Per-thread sample density: each thread sees ~1/4 of the traffic.
	cfg.Monitor.PEBS.Period = 60
	return cfg
}

// TestMachineHPCGFourThreads runs the OpenMP-style 4-thread reproduction
// and checks the acceptance shape: the solver converges, every thread
// folds its own CG_iteration instances, and every thread reproduces the
// paper's phase structure (a1, a2, B, C, d1, d2, E — 7 phases) from its
// own trace stream.
func TestMachineHPCGFourThreads(t *testing.T) {
	const threads = 4
	run, err := RunHPCGParallel(nil, machineTestConfig(), machineTestParams(), threads)
	if err != nil {
		t.Fatal(err)
	}
	if run.CG.Iterations != 4 {
		t.Errorf("iterations = %d", run.CG.Iterations)
	}
	rs := run.CG.Residuals
	if rs[len(rs)-1] >= rs[0] {
		t.Errorf("residuals not decreasing under block-parallel SYMGS: %v", rs)
	}
	if got := len(run.Threads); got != threads {
		t.Fatalf("folded threads = %d", got)
	}
	for _, tr := range run.Threads {
		if tr.Folded.InstancesUsed == 0 {
			t.Fatalf("thread %d: no folded instances", tr.Thread)
		}
		var pl []string
		for _, pp := range tr.Paper {
			pl = append(pl, pp.Label)
		}
		if len(tr.Paper) < 7 {
			t.Errorf("thread %d: %d phases (%v), want the paper's 7", tr.Thread, len(tr.Paper), pl)
		}
		for _, want := range []string{"a1", "a2", "B", "C", "d1", "d2", "E"} {
			if _, ok := run.PhaseByLabel(tr.Thread, want); !ok {
				t.Errorf("thread %d: paper phase %s missing (labels %v)", tr.Thread, want, pl)
			}
		}
	}
	// Threads partition the fine rows: each thread's sampled addresses
	// should concentrate on its own block, so the per-thread a1 spans
	// must be (roughly) disjoint and ascending with the thread id.
	var prevLo uint64
	for th := 1; th <= threads; th++ {
		p, ok := run.PhaseByLabel(th, "a1")
		if !ok {
			continue
		}
		if th > 1 && p.AddrLo <= prevLo {
			t.Errorf("thread %d a1 block starts at %#x, not above thread %d's %#x",
				th, p.AddrLo, th-1, prevLo)
		}
		prevLo = p.AddrLo
	}
	// The shared L3 saw traffic from every thread, and per-thread L3 miss
	// attribution sums to the cache-wide DRAM fills.
	var dram uint64
	for _, mt := range run.Machine.Threads {
		st := mt.Hier.LevelStats(2)
		dram += st.Misses
		if st.Accesses == 0 {
			t.Error("a thread never reached the shared L3")
		}
	}
	if llcMisses := run.Machine.L3s[0].Stats().Misses; llcMisses != dram {
		t.Errorf("shared L3 misses %d != summed per-thread DRAM fills %d", llcMisses, dram)
	}
	// The merged trace round-trips through the PRV writer with 4 threads.
	var prv, pcf bytes.Buffer
	if err := run.Machine.WriteTrace(&prv, &pcf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prv.String(), "#Paraver") {
		t.Error("prv header missing")
	}
	header := strings.SplitN(prv.String(), "\n", 2)[0]
	if !strings.HasSuffix(header, ":1:4") {
		t.Errorf("header %q does not declare 4 threads", header)
	}
}

// TestMachineStreamSingleThreadIdentical pins the driver's one-instance
// windows: RunWorkload steps STREAM one RunPartitionRange call per
// iteration, which must be byte-identical to running every iteration in a
// single call on a fresh Session.
func TestMachineStreamSingleThreadIdentical(t *testing.T) {
	cfg, _ := comparableConfigs()
	const iters = 12
	stepped, err := RunWorkload(nil, cfg, workloads.NewStream(1<<13), iters, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.NewStream(1 << 13)
	wctx := &workloads.Ctx{Core: s.Core, Mon: s.Mon, Bin: s.Bin}
	if err := w.Setup(wctx); err != nil {
		t.Fatal(err)
	}
	s.Mon.Start()
	if err := w.RunPartitionRange(wctx, 0, iters, 0, w.Elements()); err != nil {
		t.Fatal(err)
	}
	s.Mon.Stop()
	mt := stepped.Machine.Primary()
	sRecs, mRecs := s.Mon.Records(), mt.Mon.Records()
	if len(sRecs) != len(mRecs) {
		t.Fatalf("record count: one call %d, stepped %d", len(sRecs), len(mRecs))
	}
	for i := range sRecs {
		if !reflect.DeepEqual(sRecs[i], mRecs[i]) {
			t.Fatalf("record %d differs:\none call: %+v\nstepped:  %+v", i, sRecs[i], mRecs[i])
		}
	}
	if a, b := s.Core.PMU().TrueSnapshot(), mt.Core.PMU().TrueSnapshot(); a != b {
		t.Errorf("PMU totals: one call %v, stepped %v", a, b)
	}
	folded, err := s.Fold(w.Region())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := len(folded.Mem), len(stepped.Threads[0].Folded.Mem); a != b {
		t.Errorf("folded samples: one call %d, stepped %d", a, b)
	}
}

// TestMachineStreamFourThreads runs the triad across 4 cores: every thread
// folds instances over its own disjoint block of the arrays (the
// per-thread blocks ascend in address), and the triad arithmetic is
// correct.
func TestMachineStreamFourThreads(t *testing.T) {
	const threads = 4
	cfg := testConfig()
	cfg.Monitor.PEBS.Period = 60
	w := workloads.NewStream(1 << 14)
	res, err := RunWorkload(nil, cfg, w, 20, threads, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.N; i += 500 {
		if w.Value(i) != w.Expected(i) {
			t.Fatalf("triad wrong at %d: %g != %g", i, w.Value(i), w.Expected(i))
		}
	}
	if len(res.Threads) != threads {
		t.Fatalf("folded threads = %d", len(res.Threads))
	}
	var prevLo uint64
	for _, tr := range res.Threads {
		if tr.Folded.InstancesUsed < 15 {
			t.Errorf("thread %d: %d instances", tr.Thread, tr.Folded.InstancesUsed)
		}
		if len(tr.Folded.Phases) == 0 {
			t.Fatalf("thread %d: no phases", tr.Thread)
		}
		// (Sweep-direction classification needs the full-array span and is
		// pinned by the single-thread STREAM test; per-thread blocks over
		// three interleaved arrays only guarantee the address ordering.)
		p := tr.Folded.Phases[0]
		if tr.Thread > 1 && p.AddrLo <= prevLo {
			t.Errorf("thread %d block %#x not above thread %d's %#x",
				tr.Thread, p.AddrLo, tr.Thread-1, prevLo)
		}
		prevLo = p.AddrLo
	}
}

// TestMachineValidation covers constructor errors.
func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(testConfig(), 0); err == nil {
		t.Error("0 threads accepted")
	}
	bad := testConfig()
	bad.Cache.Levels = bad.Cache.Levels[:1]
	if _, err := NewMachine(bad, 2); err == nil {
		t.Error("single-level cache accepted for a machine")
	}
}
