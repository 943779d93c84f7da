package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"

	"repro/internal/sweep"
)

func sweepPoints(t *testing.T, seed int64) []sweep.Point {
	t.Helper()
	if err := registerOnce(); err != nil {
		t.Fatal(err)
	}
	points, err := expandSweep("..", sweepFiles(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Skip != "" {
			t.Errorf("point %s skipped: %s", p.Label(), p.Skip)
		}
	}
	return points
}

// identities lists the points' labels and keys in run order.
func identities(points []sweep.Point) []string {
	var out []string
	for _, p := range points {
		out = append(out, p.Label()+" "+p.Key)
	}
	return out
}

// cells counts the scenario x machine x placement cells, ignoring order
// and sampling.
func cells(points []sweep.Point) map[string]int {
	m := map[string]int{}
	for _, p := range points {
		m[p.Machine+"/"+p.Scenario.Name+"/"+p.Placement]++
	}
	return m
}

func TestSweepPointsAreSeeded(t *testing.T) {
	a, b := sweepPoints(t, DefaultSeed), sweepPoints(t, DefaultSeed)
	if !slices.Equal(identities(a), identities(b)) {
		t.Fatal("one seed gave two different point lists")
	}
	if want := len(sweepScenarioNames()) * 5; len(a) != want {
		t.Errorf("%d points, want %d (8 scenarios x 3 flat machines + 2 placements)", len(a), want)
	}
	c := sweepPoints(t, HeldOutSeed)
	if slices.Equal(identities(a), identities(c)) {
		t.Error("two seeds gave the same point list")
	}
	// The seed changes the sampling seed, not the scenario x machine x
	// placement cells: the work per pass stays the same.
	ca, cc := cells(a), cells(c)
	if len(ca) != len(a) || !maps.Equal(ca, cc) {
		t.Errorf("seeds changed the sweep cells:\n%v\n%v", ca, cc)
	}
}

func simdSequence(t *testing.T, seed int64) []string {
	t.Helper()
	spec, err := os.ReadFile("../" + haswell2s)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range simdRequests(seed, goldenScenarios(), spec) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

func TestSimdRequestsAreSeeded(t *testing.T) {
	a, b := simdSequence(t, DefaultSeed), simdSequence(t, DefaultSeed)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two different request sequences")
	}
	if slices.Equal(a, simdSequence(t, HeldOutSeed)) {
		t.Error("two seeds gave the same request sequence")
	}
	fresh := simdCopies * len(goldenScenarios()) * len(simdMachines)
	if len(a) != fresh+fresh/3 {
		t.Errorf("%d requests, want %d fresh + %d repeats", len(a), fresh, fresh/3)
	}
	// Every repeat copies a request at least simdRepeatLag earlier, so it
	// is answered before the repeat is sent.
	first := map[string]int{}
	repeats := 0
	for i, r := range a {
		j, seen := first[r]
		if !seen {
			first[r] = i
			continue
		}
		repeats++
		if i-j < simdRepeatLag {
			t.Errorf("request %d repeats request %d, closer than %d", i, j, simdRepeatLag)
		}
	}
	if repeats != fresh/3 || len(first) != fresh {
		t.Errorf("%d distinct, %d repeats; want %d and %d", len(first), repeats, fresh, fresh/3)
	}
}

func TestGoldenScenariosExcludeBenchmarkScenarios(t *testing.T) {
	if err := registerOnce(); err != nil {
		t.Fatal(err)
	}
	golden := goldenScenarios()
	if len(golden) != 18 {
		t.Errorf("%d golden scenarios, want 18: %v", len(golden), golden)
	}
	for _, name := range sweepScenarioNames() {
		if slices.Contains(golden, name) {
			t.Errorf("benchmark scenario %s listed as golden", name)
		}
	}
}
