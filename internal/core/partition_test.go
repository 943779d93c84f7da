package core

import (
	"reflect"
	"testing"

	"repro/internal/numa"
	"repro/internal/workloads"
)

// Partition-equivalence suite for the partitioned workloads: the
// single-core flat Machine (private L3, the Session's machine) must be
// byte-identical to a single core on the shared-LLC code path, and the
// N-thread runs must fold every thread.

// partitionedWorkloads builds a fresh instance of every synthetic
// partitioned workload at regression scale.
func partitionedWorkloads() map[string]func() workloads.PartitionedWorkload {
	return map[string]func() workloads.PartitionedWorkload{
		"stream":        func() workloads.PartitionedWorkload { return workloads.NewStream(1 << 13) },
		"random_access": func() workloads.PartitionedWorkload { return workloads.NewRandomAccess(1<<14, 3000, 11) },
		"pointer_chase": func() workloads.PartitionedWorkload { return workloads.NewPointerChase(1<<12, 5) },
		"matmul":        func() workloads.PartitionedWorkload { return workloads.NewMatMul(24) },
		"spmv_csr":      func() workloads.PartitionedWorkload { return workloads.NewSpMV(12, 12, 12) },
	}
}

// assertSingleCoreIdentical compares the primary threads of two 1-thread
// runs: trace records, cycles, PMU totals, cache and PEBS statistics and
// the folded output.
func assertSingleCoreIdentical(t *testing.T, private, shared *MachineWorkloadResult) {
	t.Helper()
	pt, st := private.Machine.Primary(), shared.Machine.Primary()
	pRecs, sRecs := pt.Mon.Records(), st.Mon.Records()
	if len(pRecs) != len(sRecs) {
		t.Fatalf("record count: private %d, shared %d", len(pRecs), len(sRecs))
	}
	for i := range pRecs {
		if !reflect.DeepEqual(pRecs[i], sRecs[i]) {
			t.Fatalf("record %d differs:\nprivate: %+v\nshared:  %+v", i, pRecs[i], sRecs[i])
		}
	}
	if a, b := pt.Core.Cycles(), st.Core.Cycles(); a != b {
		t.Errorf("cycles: private %d, shared %d", a, b)
	}
	if a, b := pt.Core.PMU().TrueSnapshot(), st.Core.PMU().TrueSnapshot(); a != b {
		t.Errorf("PMU totals: private %v, shared %v", a, b)
	}
	if a, b := pt.Hier.Levels(), st.Hier.Levels(); a != b {
		t.Fatalf("levels: private %d, shared %d", a, b)
	}
	for i := 0; i < pt.Hier.Levels(); i++ {
		if a, b := pt.Hier.LevelStats(i), st.Hier.LevelStats(i); a != b {
			t.Errorf("level %d stats: private %+v, shared %+v", i, a, b)
		}
	}
	if a, b := pt.Hier.DRAMAccesses(), st.Hier.DRAMAccesses(); a != b {
		t.Errorf("DRAM accesses: private %d, shared %d", a, b)
	}
	if a, b := pt.Mon.Engine().Stats(), st.Mon.Engine().Stats(); a != b {
		t.Errorf("PEBS stats: private %+v, shared %+v", a, b)
	}
	pf, sf := private.Threads[0].Folded, shared.Threads[0].Folded
	if len(pf.Mem) == 0 || len(pf.Mem) != len(sf.Mem) {
		t.Fatalf("folded samples: private %d, shared %d", len(pf.Mem), len(sf.Mem))
	}
	for i := range pf.Mem {
		if pf.Mem[i] != sf.Mem[i] {
			t.Fatalf("folded sample %d differs: %+v vs %+v", i, pf.Mem[i], sf.Mem[i])
		}
	}
	if !reflect.DeepEqual(pf.Phases, sf.Phases) {
		t.Errorf("phases differ: %+v vs %+v", pf.Phases, sf.Phases)
	}
}

// TestPartitionSingleThreadIdenticalToSession pins the Session's private
// L3 to the shared-LLC code path for every partitioned workload, on both
// the randomized-mux and deterministic configurations: one core of a
// 1-socket NUMA machine (shared L3, every fill routed through the page
// placement) must run byte-identically to the single-core flat machine.
func TestPartitionSingleThreadIdenticalToSession(t *testing.T) {
	const iters = 6
	for name, mk := range partitionedWorkloads() {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []struct {
				name string
				cfg  func() Config
			}{
				{"randomized-mux", func() Config { cfg, _ := comparableConfigs(); return cfg }},
				{"deterministic", testConfig},
			} {
				t.Run(mode.name, func(t *testing.T) {
					private, err := RunWorkload(nil, mode.cfg(), mk(), iters, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg := mode.cfg()
					cfg.NUMA = numa.Config{Sockets: 1}
					shared, err := RunWorkload(nil, cfg, mk(), iters, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(private.Machine.L3s) != 0 || len(shared.Machine.L3s) != 1 {
						t.Fatalf("L3s: private %d, shared %d; want 0 and 1",
							len(private.Machine.L3s), len(shared.Machine.L3s))
					}
					assertSingleCoreIdentical(t, private, shared)
				})
			}
		})
	}
}

// TestPartitionFourThreads runs every partitioned workload across 4 cores
// sharing one L3: every thread must fold instances of its own block.
func TestPartitionFourThreads(t *testing.T) {
	const threads = 4
	cfg := testConfig()
	cfg.Monitor.PEBS.Period = 60
	for name, mk := range partitionedWorkloads() {
		t.Run(name, func(t *testing.T) {
			res, err := RunWorkload(nil, cfg, mk(), 4, threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Threads) != threads {
				t.Fatalf("folded threads = %d", len(res.Threads))
			}
			for _, tr := range res.Threads {
				if tr.Folded.InstancesUsed == 0 {
					t.Errorf("thread %d: no folded instances", tr.Thread)
				}
			}
		})
	}
}

// TestPartitionResultsCorrect checks the numerical results survive
// partitioning: the triad and SpMV outputs match their closed forms after
// a 4-thread run.
func TestPartitionResultsCorrect(t *testing.T) {
	cfg := testConfig()
	st := workloads.NewStream(1 << 13)
	if _, err := RunWorkload(nil, cfg, st, 3, 4, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.N; i += 97 {
		if st.Value(i) != st.Expected(i) {
			t.Fatalf("triad wrong at %d: %g != %g", i, st.Value(i), st.Expected(i))
		}
	}
	sp := workloads.NewSpMV(12, 12, 12)
	if _, err := RunWorkload(nil, cfg, sp, 2, 4, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sp.Rows(); i += 53 {
		if sp.Value(i) != sp.Expected(i) {
			t.Fatalf("spmv wrong at row %d: %g != %g", i, sp.Value(i), sp.Expected(i))
		}
	}
}
