package main

import (
	"math"
	"slices"
	"time"
)

// dist summarizes a sample: its size, median, 90th percentile and maximum.
// The 90th percentile is reported with its sample count so a reader can see
// how many samples lie beyond it (n/10); at n < 100 fewer than ten do.
type dist struct {
	N             int
	P50, P90, Max float64
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return dist{N: len(s), P50: sortedQuantile(s, 0.5), P90: sortedQuantile(s, 0.9), Max: s[len(s)-1]}
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks (the R-7 / numpy "linear" definition); 0 when xs is
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds and millis convert durations to the float units the report uses.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// workerBusyRatio is the share of a pool's capacity spent on work: the sum
// of the per-item busy times over jobs workers × the pass's wall time. 1
// means no worker ever idled; with 2 workers and one slow tail item it
// falls towards 1/2.
func workerBusyRatio(busy []time.Duration, jobs int, pass time.Duration) float64 {
	if jobs <= 0 || pass <= 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range busy {
		sum += d
	}
	return float64(sum) / (float64(jobs) * float64(pass))
}

// transportTimes is each request's round trip seen by the client minus the
// time the server's handler held it: the HTTP, loopback and JSON cost that
// neither side's own span explains. Requests without a matching handler
// time (retried attempts, missing spans) are skipped.
func transportTimes(roundTrip, handler []time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(roundTrip))
	for i, rt := range roundTrip {
		if i >= len(handler) || handler[i] <= 0 {
			continue
		}
		out = append(out, rt-handler[i])
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
