// Package paraver provides trace-analysis utilities in the spirit of the
// Paraver browser: reconstructing region timelines (which instrumented
// region was active when) and computing region profiles (time share,
// instance counts). The report layer uses these to present the raw
// (pre-folding) view of a run, and the folding pipeline uses the region
// profile to pick the dominant foldable region.
package paraver

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Span is one contiguous activation of a region.
type Span struct {
	Region int64
	T0, T1 uint64
	// Depth is the nesting depth at which the region ran (0 = outermost).
	Depth int
}

// DurationNs returns the span length.
func (s Span) DurationNs() uint64 { return s.T1 - s.T0 }

// Timeline reconstructs the region activation spans of one (task, thread)
// from a chronological record stream. Nested regions produce nested spans
// with increasing Depth. Unclosed regions at end-of-trace are closed at the
// last record's timestamp.
func Timeline(records []trace.Record, task, thread int) ([]Span, error) {
	type open struct {
		region int64
		t0     uint64
	}
	var stack []open
	var out []Span
	var lastT uint64
	for i := range records {
		rec := &records[i]
		if rec.Task != task || rec.Thread != thread {
			continue
		}
		lastT = rec.TimeNs
		v, ok := rec.Get(trace.TypeRegion)
		if !ok {
			continue
		}
		if v != 0 {
			stack = append(stack, open{region: v, t0: rec.TimeNs})
			continue
		}
		if len(stack) == 0 {
			return nil, fmt.Errorf("paraver: region end without begin at %d ns", rec.TimeNs)
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, Span{Region: top.region, T0: top.t0, T1: rec.TimeNs, Depth: len(stack)})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, Span{Region: top.region, T0: top.t0, T1: lastT, Depth: len(stack)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T0 != out[j].T0 {
			return out[i].T0 < out[j].T0
		}
		return out[i].Depth < out[j].Depth
	})
	return out, nil
}

// ProfileRow summarizes one region's activity.
type ProfileRow struct {
	Region    int64
	Instances int
	TotalNs   uint64
	MeanNs    float64
	MinNs     uint64
	MaxNs     uint64
}

// Profile aggregates spans into per-region statistics, sorted by total time
// descending. Nested time is attributed to both levels, as in Paraver's
// default region profile.
func Profile(spans []Span) []ProfileRow {
	agg := make(map[int64]*ProfileRow)
	for _, s := range spans {
		row, ok := agg[s.Region]
		if !ok {
			row = &ProfileRow{Region: s.Region, MinNs: ^uint64(0)}
			agg[s.Region] = row
		}
		d := s.DurationNs()
		row.Instances++
		row.TotalNs += d
		if d < row.MinNs {
			row.MinNs = d
		}
		if d > row.MaxNs {
			row.MaxNs = d
		}
	}
	out := make([]ProfileRow, 0, len(agg))
	for _, row := range agg {
		row.MeanNs = float64(row.TotalNs) / float64(row.Instances)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Region < out[j].Region
	})
	return out
}
