package stats

import "math"

// Segment is a maximal run of the folded time axis over which a signal is
// approximately constant. The Folding report uses segments of the
// instantaneous-rate curves (and of the dominant source line) to delimit the
// computation phases the paper labels A(a1, a2), B, C, D(d1, d2), E.
type Segment struct {
	// Lo and Hi delimit the segment on the x axis (half-open [Lo, Hi)).
	Lo, Hi float64
	// Value is the mean signal value over the segment.
	Value float64
}

// SegmentByThreshold splits the signal ys over grid xs into maximal segments
// whose values stay within relTol (relative to the overall signal range) of
// the running segment mean. It is a simple, deterministic change-point
// detector adequate for the piecewise-flat rate curves folding produces.
func SegmentByThreshold(xs, ys []float64, relTol float64) []Segment {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil
	}
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	span := hi - lo
	if span == 0 {
		return []Segment{{Lo: xs[0], Hi: xs[len(xs)-1], Value: ys[0]}}
	}
	tol := relTol * span
	var segs []Segment
	start := 0
	sum := ys[0]
	for i := 1; i < len(ys); i++ {
		mean := sum / float64(i-start)
		if math.Abs(ys[i]-mean) > tol {
			segs = append(segs, Segment{Lo: xs[start], Hi: xs[i], Value: mean})
			start = i
			sum = ys[i]
			continue
		}
		sum += ys[i]
	}
	segs = append(segs, Segment{
		Lo:    xs[start],
		Hi:    xs[len(xs)-1],
		Value: sum / float64(len(ys)-start),
	})
	return segs
}

// MergeShortSegments merges segments narrower than minWidth into their wider
// neighbour (preferring the neighbour with the closer value), returning a new
// slice. Used to suppress spurious single-point phases at transitions.
func MergeShortSegments(segs []Segment, minWidth float64) []Segment {
	if len(segs) <= 1 {
		return segs
	}
	out := make([]Segment, 0, len(segs))
	for _, s := range segs {
		if len(out) > 0 && s.Hi-s.Lo < minWidth {
			prev := &out[len(out)-1]
			w1 := prev.Hi - prev.Lo
			w2 := s.Hi - s.Lo
			prev.Value = (prev.Value*w1 + s.Value*w2) / (w1 + w2)
			prev.Hi = s.Hi
			continue
		}
		out = append(out, s)
	}
	// A leading short segment may remain; merge forward.
	if len(out) > 1 && out[0].Hi-out[0].Lo < minWidth {
		w1 := out[0].Hi - out[0].Lo
		w2 := out[1].Hi - out[1].Lo
		out[1].Value = (out[0].Value*w1 + out[1].Value*w2) / (w1 + w2)
		out[1].Lo = out[0].Lo
		out = out[1:]
	}
	return out
}
