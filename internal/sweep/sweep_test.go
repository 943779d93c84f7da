package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machspec"
)

func u64(v uint64) *uint64 { return &v }

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"version": 1, "scenarios": ["stream_triad_1t"], "machine": ["haswell"]}`, "unknown field"},
		{"wrong version", `{"version": 2, "scenarios": ["stream_triad_1t"]}`, "unsupported version"},
		{"no scenarios", `{"version": 1, "machines": ["haswell"]}`, "no scenarios"},
		{"trailing garbage", `{"version": 1, "scenarios": ["stream_triad_1t"]} {}`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestExpand(t *testing.T) {
	f := &File{
		Version:    1,
		Machines:   []string{"haswell", "small"},
		Scenarios:  []string{"stream_triad_1t", "random_access_1t"},
		Placements: []string{"", "interleave"},
		Sampling:   []machspec.Sampling{{Period: u64(100)}, {Period: u64(200)}},
	}
	points, err := f.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("expanded %d points, want 2*2*2*2 = 16", len(points))
	}
	keys := make(map[string]bool)
	for _, p := range points {
		if p.Key == "" || len(p.Key) != 64 {
			t.Fatalf("point %s has malformed key %q", p.Label(), p.Key)
		}
		if keys[p.Key] {
			t.Fatalf("duplicate key for %s — an axis is not part of the hash", p.Label())
		}
		keys[p.Key] = true
		// Both machines are flat specs, so every interleave point must be
		// marked skipped, and only those.
		wantSkip := p.Placement == "interleave"
		if (p.Skip != "") != wantSkip {
			t.Errorf("point %s: skip = %q, want skip-ness %t", p.Label(), p.Skip, wantSkip)
		}
	}

	// Key stability: the same point expanded twice hashes identically.
	again, err := f.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i].Key != again[i].Key {
			t.Fatalf("key for %s not stable across expansions", points[i].Label())
		}
	}

	// Unknown scenario and unknown machine fail before anything runs.
	bad := &File{Version: 1, Scenarios: []string{"nope"}}
	if _, err := bad.Expand("."); err == nil || !strings.Contains(err.Error(), `unknown scenario "nope"`) {
		t.Errorf("unknown scenario error = %v", err)
	}
	bad = &File{Version: 1, Machines: []string{"jureca"}, Scenarios: []string{"stream_triad_1t"}}
	if _, err := bad.Expand("."); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestExpandResolvesMachinePathsRelativeToSweepFile(t *testing.T) {
	dir := t.TempDir()
	spec, err := machspec.Named("small")
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	f := &File{Version: 1, Machines: []string{"m.json"}, Scenarios: []string{"stream_triad_1t"}}
	points, err := f.Expand(dir)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Spec == nil || points[0].Spec.Name != "small" {
		t.Fatalf("machine path not resolved relative to sweep dir: %+v", points[0].Spec)
	}
	// Same content under a different path ⇒ same key as the named spec:
	// the hash covers the resolved machine, not the reference string.
	named := &File{Version: 1, Machines: []string{"small"}, Scenarios: []string{"stream_triad_1t"}}
	namedPoints, err := named.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Key != namedPoints[0].Key {
		t.Error("identical machine content under different references produced different keys")
	}
}

// TestRunCacheAndDedup is the tentpole acceptance test: an 8-point
// cross-product simulates every unique point once, a re-run against the
// same cache simulates nothing, and the cached bytes are identical to the
// simulated ones.
func TestRunCacheAndDedup(t *testing.T) {
	f := &File{
		Version:   1,
		Machines:  []string{"haswell", "small"},
		Scenarios: []string{"stream_triad_1t", "random_access_1t"},
		Sampling:  []machspec.Sampling{{Period: u64(100)}, {Period: u64(200)}},
	}
	points, err := f.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("expanded %d points, want 8", len(points))
	}

	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Jobs: 4, Cache: cache}
	first, sum1, err := r.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Simulated != 8 || sum1.CacheHits != 0 || sum1.Errors != 0 || sum1.Skipped != 0 {
		t.Fatalf("first run summary = %s, want 8 simulated", sum1)
	}
	for _, res := range first {
		if res.Source != SourceSimulated || len(res.Metrics) == 0 || res.Parsed == nil {
			t.Fatalf("first-run point %s: source=%s metrics=%dB", res.Point.Label(), res.Source, len(res.Metrics))
		}
	}

	// Re-run with a fresh cache handle over the same directory: zero
	// simulation, byte-identical results.
	cache2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Jobs: 4, Cache: cache2}
	second, sum2, err := r2.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Simulated != 0 || sum2.CacheHits != 8 {
		t.Fatalf("cached re-run summary = %s, want 0 simulated / 8 cached", sum2)
	}
	for i := range first {
		if !bytes.Equal(first[i].Metrics, second[i].Metrics) {
			t.Fatalf("point %s: cached bytes differ from simulated bytes", first[i].Point.Label())
		}
	}
}

func TestRunDedupsEqualKeysWithinOneRun(t *testing.T) {
	// The same machine listed under two references with identical content:
	// equal keys, so the second set of points must reuse the first's run.
	dir := t.TempDir()
	spec, err := machspec.Named("small")
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "small-copy.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	f := &File{Version: 1, Machines: []string{"small", "small-copy.json"}, Scenarios: []string{"stream_triad_1t"}}
	points, err := f.Expand(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Jobs: 2}
	results, sum, err := r.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Simulated != 1 || sum.Deduped != 1 {
		t.Fatalf("summary = %s, want 1 simulated / 1 deduped", sum)
	}
	if !bytes.Equal(results[0].Metrics, results[1].Metrics) {
		t.Fatal("deduped point's bytes differ from its twin")
	}
}

func TestRunSkipsAndErrorsDoNotAbort(t *testing.T) {
	f := &File{
		Version:    1,
		Scenarios:  []string{"stream_triad_1t", "random_access_1t"},
		Placements: []string{"", "interleave"}, // interleave on flat scenarios ⇒ skipped
	}
	points, err := f.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Jobs: 2}
	results, sum, err := r.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 2 || sum.Simulated != 2 || sum.Errors != 0 {
		t.Fatalf("summary = %s, want 2 simulated / 2 skipped", sum)
	}
	for _, res := range results {
		if res.Point.Skip != "" && res.Source != SourceSkipped {
			t.Fatalf("skipped point %s reported source %s", res.Point.Label(), res.Source)
		}
	}
}
