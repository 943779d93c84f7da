package scenario

import (
	"testing"
)

// remoteFills sums a run's per-thread remote DRAM fills.
func remoteFills(m *Metrics) (total, remote uint64) {
	for _, tm := range m.PerThread {
		total += tm.DRAMFills
		if tm.RemoteDRAMFills != nil {
			remote += *tm.RemoteDRAMFills
		}
	}
	return total, remote
}

// runNamed runs a registered scenario.
func runNamed(t *testing.T, name string, opts Options) (*Metrics, error) {
	t.Helper()
	sc, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return Run(sc, opts)
}

// TestNUMAPolicyAxisLive pins the acceptance criterion of the NUMA
// subsystem directly: the first-touch and interleave STREAM scenarios
// differ in remote-DRAM fill counts — the placement policy is observable
// end to end (hierarchy → PMU → metrics), not just a config knob.
func TestNUMAPolicyAxisLive(t *testing.T) {
	ft, err := runNamed(t, "stream_numa_ft_2s4t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	il, err := runNamed(t, "stream_numa_il_2s4t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ftTotal, ftRemote := remoteFills(ft)
	ilTotal, ilRemote := remoteFills(il)
	if ftTotal == 0 || ilTotal == 0 {
		t.Fatalf("no DRAM fills: ft=%d il=%d", ftTotal, ilTotal)
	}
	if ilRemote == 0 {
		t.Fatal("interleave scenario recorded no remote fills")
	}
	if ftRemote >= ilRemote {
		t.Fatalf("first-touch remote fills (%d) not below interleave (%d)", ftRemote, ilRemote)
	}
	// The per-node controllers and the per-socket L3 views must both
	// conserve the issued traffic.
	for _, m := range []*Metrics{ft, il} {
		if m.NUMA == nil || len(m.NUMA.Sockets) != 2 || len(m.NUMA.Nodes) != 2 {
			t.Fatalf("%s: malformed NUMA section", m.Scenario)
		}
		total, remote := remoteFills(m)
		var served, servedRemote, socketFills uint64
		for _, n := range m.NUMA.Nodes {
			served += n.FillsLocal + n.FillsRemote
			servedRemote += n.FillsRemote
		}
		for _, s := range m.NUMA.Sockets {
			socketFills += s.DRAMFills
		}
		if served != total || servedRemote != remote || socketFills != total {
			t.Errorf("%s: nodes served %d (%d remote), sockets issued %d, threads saw %d (%d remote)",
				m.Scenario, served, servedRemote, socketFills, total, remote)
		}
	}
}

// TestNUMAHPCGFirstTouchVsInterleave pins the serial-init placement story:
// first-touch homes every page on the generating socket (zero remote),
// interleave pushes roughly half the fills across the interconnect.
func TestNUMAHPCGFirstTouchVsInterleave(t *testing.T) {
	ft, err := runNamed(t, "hpcg_numa_ft_2s1t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	il, err := runNamed(t, "hpcg_numa_il_2s1t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ftRemote := remoteFills(ft)
	ilTotal, ilRemote := remoteFills(il)
	if ftRemote != 0 {
		t.Errorf("first-touch HPCG recorded %d remote fills (serial init must home all pages locally)", ftRemote)
	}
	if ilRemote == 0 || ilRemote >= ilTotal {
		t.Errorf("interleave HPCG remote fills %d of %d implausible", ilRemote, ilTotal)
	}
	if ft.CG.FinalResidual != il.CG.FinalResidual {
		// Placement moves pages, not values: the solve is bit-identical.
		t.Errorf("CG residual differs across placements: %g vs %g",
			ft.CG.FinalResidual, il.CG.FinalResidual)
	}
}

// TestNUMASocketsOverride checks the simrun -sockets/-placement override
// path: a flat scenario forced onto 2 interleaved sockets reports a NUMA
// section and remote fills.
func TestNUMASocketsOverride(t *testing.T) {
	m, err := runNamed(t, "stream_triad_4t", Options{Sockets: 2, Placement: "interleave"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sockets != 2 || m.Placement != "interleave" || m.NUMA == nil {
		t.Fatalf("override not applied: sockets=%d placement=%q numa=%v", m.Sockets, m.Placement, m.NUMA != nil)
	}
	if _, remote := remoteFills(m); remote == 0 {
		t.Error("interleaved override produced no remote fills")
	}
	// A bare placement override on a flat scenario is inert and rejected.
	if _, err := runNamed(t, "stream_triad_4t", Options{Placement: "interleave"}); err == nil {
		t.Error("placement override without a NUMA topology accepted")
	}
}
