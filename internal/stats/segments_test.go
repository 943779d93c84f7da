package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func stepSignal(n int, levels []float64) ([]float64, []float64) {
	xs := UniformGrid(0, 1, n)
	ys := make([]float64, n)
	per := n / len(levels)
	for i := range ys {
		li := i / per
		if li >= len(levels) {
			li = len(levels) - 1
		}
		ys[i] = levels[li]
	}
	return xs, ys
}

func TestSegmentByThresholdSteps(t *testing.T) {
	xs, ys := stepSignal(300, []float64{1, 5, 2})
	segs := SegmentByThreshold(xs, ys, 0.1)
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3: %+v", len(segs), segs)
	}
	wantVals := []float64{1, 5, 2}
	for i, s := range segs {
		if math.Abs(s.Value-wantVals[i]) > 0.01 {
			t.Errorf("segment %d value = %g, want %g", i, s.Value, wantVals[i])
		}
	}
	// Segments must tile [0, 1] without gaps.
	if segs[0].Lo != 0 || segs[len(segs)-1].Hi != 1 {
		t.Errorf("segments do not span domain: %+v", segs)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Lo != segs[i-1].Hi {
			t.Errorf("gap between segment %d and %d", i-1, i)
		}
	}
}

func TestSegmentByThresholdFlat(t *testing.T) {
	xs, ys := stepSignal(50, []float64{3})
	segs := SegmentByThreshold(xs, ys, 0.05)
	if len(segs) != 1 {
		t.Fatalf("flat signal produced %d segments", len(segs))
	}
	if segs[0].Value != 3 {
		t.Errorf("value = %g", segs[0].Value)
	}
}

func TestSegmentByThresholdDegenerate(t *testing.T) {
	if segs := SegmentByThreshold(nil, nil, 0.1); segs != nil {
		t.Error("nil input should give nil")
	}
	if segs := SegmentByThreshold([]float64{1}, []float64{1, 2}, 0.1); segs != nil {
		t.Error("mismatched input should give nil")
	}
}

func TestMergeShortSegments(t *testing.T) {
	segs := []Segment{
		{Lo: 0, Hi: 0.4, Value: 1},
		{Lo: 0.4, Hi: 0.42, Value: 9}, // spurious
		{Lo: 0.42, Hi: 1, Value: 2},
	}
	out := MergeShortSegments(segs, 0.05)
	if len(out) != 2 {
		t.Fatalf("got %d segments, want 2: %+v", len(out), out)
	}
	if out[0].Hi != 0.42 {
		t.Errorf("short segment merged wrong: %+v", out)
	}
	// Leading short segment merges forward.
	segs2 := []Segment{
		{Lo: 0, Hi: 0.01, Value: 9},
		{Lo: 0.01, Hi: 1, Value: 2},
	}
	out2 := MergeShortSegments(segs2, 0.05)
	if len(out2) != 1 || out2[0].Lo != 0 {
		t.Errorf("leading merge: %+v", out2)
	}
	// Single segment untouched.
	if got := MergeShortSegments(segs2[:1], 0.05); len(got) != 1 {
		t.Error("single segment modified")
	}
}

func TestPropertySegmentsTile(t *testing.T) {
	// Segments always tile [xs[0], xs[n-1]] contiguously.
	f := func(seed int64) bool {
		n := 100
		xs := UniformGrid(0, 1, n)
		ys := make([]float64, n)
		v := float64(seed % 7)
		for i := range ys {
			if i%17 == 0 {
				v = float64((int64(i) + seed) % 13)
			}
			ys[i] = v
		}
		segs := SegmentByThreshold(xs, ys, 0.05)
		if len(segs) == 0 {
			return false
		}
		if segs[0].Lo != xs[0] || segs[len(segs)-1].Hi != xs[n-1] {
			return false
		}
		for i := 1; i < len(segs); i++ {
			if segs[i].Lo != segs[i-1].Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
