package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machspec"
)

// TestKillAndResumeMatchesGolden is the end-to-end fault-tolerance
// acceptance test: kill a scenario run at an instance boundary via the
// fault-injection harness, resume it from the last snapshot (round-tripped
// through the binary codec, as simrun -checkpoint/-resume would), and
// require the resumed run's Metrics JSON to equal the checked-in golden
// file byte for byte. The subset covers every run path: the single-core
// machine, the multi-core sequential schedule, the NUMA-routed Machine
// (page placement state) and the HPCG step driver (CG vector state), flat
// and NUMA-routed.
func TestKillAndResumeMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64-generated; FMA fusion on %s perturbs float64 reductions", runtime.GOARCH)
	}
	cases := []struct {
		name  string
		every int
		// killAt is the 1-based instance hit that fails; it must land past
		// the first snapshot (every) so there is something to resume.
		killAt uint64
	}{
		{name: "stream_triad_1t", every: 3, killAt: 7},
		{name: "spmv_csr_4t", every: 5, killAt: 14},
		{name: "stream_numa_ft_2s4t", every: 5, killAt: 14},
		// hpcg_8_1t runs 3 CG iterations: snapshot after the second, kill
		// entering the third.
		{name: "hpcg_8_1t", every: 2, killAt: 3},
		{name: "hpcg_numa_il_2s1t", every: 2, killAt: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := Get(tc.name)
			if !ok {
				t.Fatalf("scenario %q not registered", tc.name)
			}
			golden, err := os.ReadFile(goldenPath(tc.name))
			if err != nil {
				t.Fatal(err)
			}

			var lastEnc []byte
			opts := Options{
				CheckpointEvery: tc.every,
				CheckpointSink: func(s *checkpoint.Snapshot) error {
					var buf bytes.Buffer
					if err := checkpoint.Write(&buf, s); err != nil {
						return err
					}
					lastEnc = buf.Bytes()
					return nil
				},
			}
			faultinject.Enable(faultinject.PointInstance, tc.killAt, nil)
			m, err := Run(sc, opts)
			faultinject.Reset()
			var rerr *core.RunError
			if !errors.As(err, &rerr) {
				t.Fatalf("killed run: got %T %v, want *core.RunError", err, err)
			}
			if m == nil || !m.Partial || m.Fault == "" || m.FaultCursor == "" {
				t.Fatalf("killed run's metrics not marked partial: %+v", m)
			}
			if lastEnc == nil {
				t.Fatal("no snapshot emitted before the kill")
			}

			snap, err := checkpoint.Read(bytes.NewReader(lastEnc))
			if err != nil {
				t.Fatalf("decoding snapshot: %v", err)
			}
			resumed, err := Run(sc, Options{Resume: snap})
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			got, err := resumed.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("resumed metrics differ from golden %s (%d vs %d bytes)", tc.name, len(got), len(golden))
			}
		})
	}
}

// TestResumeWrongScenarioRejected pins the tag validation: a snapshot from
// one scenario must not silently resume another.
func TestResumeWrongScenarioRejected(t *testing.T) {
	sc, ok := Get("stream_triad_1t")
	if !ok {
		t.Fatal("scenario missing")
	}
	var last *checkpoint.Snapshot
	opts := Options{
		CheckpointEvery: 3,
		CheckpointSink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
	}
	if _, err := Run(sc, opts); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no snapshot emitted")
	}
	other, ok := Get("random_access_1t")
	if !ok {
		t.Fatal("scenario missing")
	}
	if _, err := Run(other, Options{Resume: last}); err == nil {
		t.Fatal("snapshot resumed under the wrong scenario")
	}
}

// TestResumeThenTimeoutEmitsPartial is the timeout-clock regression: a
// resumed run whose deadline expires must still stop at an instance
// boundary with clearly-marked partial metrics — the resume read happening
// before the clock starts (simrun orders them that way) must not change
// the abort path's behavior. The already-cancelled context stands in for a
// deadline that expired the moment dispatch began.
func TestResumeThenTimeoutEmitsPartial(t *testing.T) {
	sc, ok := Get("stream_triad_1t")
	if !ok {
		t.Fatal("scenario missing")
	}
	var last *checkpoint.Snapshot
	opts := Options{
		CheckpointEvery: 3,
		CheckpointSink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
	}
	if _, err := Run(sc, opts); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no snapshot emitted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := Run(sc, Options{Resume: last, Context: ctx})
	var rerr *core.RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("cancelled resume: got %T %v, want *core.RunError", err, err)
	}
	if m == nil || !m.Partial || m.FaultCursor == "" {
		t.Fatalf("cancelled resume's metrics not marked partial: %+v", m)
	}
}

// TestResumeUnderDifferentMachineRejected pins the checkpoint tag: a
// snapshot must not resume under a different simulated machine — a
// -machine spec override, a sampling override or another NUMA placement.
// Each alters every access, sample or page home from the snapshot on, so a
// silent resume would produce metrics matching neither configuration's
// uninterrupted run.
func TestResumeUnderDifferentMachineRejected(t *testing.T) {
	spec, err := machspec.Named("small")
	if err != nil {
		t.Fatal(err)
	}
	period := uint64(97)
	for _, tc := range []struct {
		name     string
		scenario string
		every    int
		resume   Options
	}{
		{"machine-spec", "stream_triad_1t", 3, Options{Machine: spec}},
		{"sampling-period", "stream_triad_1t", 3, Options{Sampling: &machspec.Sampling{Period: &period}}},
		{"placement", "stream_numa_ft_2s4t", 5, Options{Placement: "interleave"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := Get(tc.scenario)
			if !ok {
				t.Fatalf("scenario %q missing", tc.scenario)
			}
			var last *checkpoint.Snapshot
			opts := Options{
				CheckpointEvery: tc.every,
				CheckpointSink:  func(s *checkpoint.Snapshot) error { last = s; return nil },
			}
			if _, err := Run(sc, opts); err != nil {
				t.Fatal(err)
			}
			if last == nil {
				t.Fatal("no snapshot emitted")
			}
			resume := tc.resume
			resume.Resume = last
			if _, err := Run(sc, resume); err == nil {
				t.Errorf("%s snapshot resumed under a %s override", tc.scenario, tc.name)
			}
		})
	}
}
