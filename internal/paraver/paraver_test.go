package paraver

import (
	"testing"

	"repro/internal/trace"
)

func regionRec(t uint64, v int64) trace.Record {
	return trace.Record{TimeNs: t, Task: 1, Thread: 1,
		Pairs: []trace.TypeValue{{Type: trace.TypeRegion, Value: v}}}
}

func counterRec(t uint64, typ uint32, v int64) trace.Record {
	return trace.Record{TimeNs: t, Task: 1, Thread: 1,
		Pairs: []trace.TypeValue{{Type: typ, Value: v}}}
}

func TestTimelineFlat(t *testing.T) {
	recs := []trace.Record{
		regionRec(10, 5), regionRec(20, 0),
		regionRec(30, 6), regionRec(50, 0),
	}
	spans, err := Timeline(recs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Region != 5 || spans[0].T0 != 10 || spans[0].T1 != 20 || spans[0].Depth != 0 {
		t.Errorf("span0 = %+v", spans[0])
	}
	if spans[1].DurationNs() != 20 {
		t.Errorf("span1 duration = %d", spans[1].DurationNs())
	}
}

func TestTimelineNested(t *testing.T) {
	recs := []trace.Record{
		regionRec(0, 1),  // outer
		regionRec(10, 2), // inner
		regionRec(20, 0), // inner end
		regionRec(30, 0), // outer end
	}
	spans, err := Timeline(recs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Region != 1 || spans[0].Depth != 0 {
		t.Errorf("outer = %+v", spans[0])
	}
	if spans[1].Region != 2 || spans[1].Depth != 1 || spans[1].T0 != 10 || spans[1].T1 != 20 {
		t.Errorf("inner = %+v", spans[1])
	}
}

func TestTimelineUnclosedAndErrors(t *testing.T) {
	// Unclosed region closes at last record time.
	recs := []trace.Record{regionRec(0, 1), counterRec(100, trace.TypeCounterBase, 5)}
	spans, err := Timeline(recs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].T1 != 100 {
		t.Errorf("unclosed span = %+v", spans)
	}
	// End without begin is an error.
	if _, err := Timeline([]trace.Record{regionRec(5, 0)}, 1, 1); err == nil {
		t.Error("unbalanced end accepted")
	}
	// Other threads are ignored.
	other := regionRec(5, 0)
	other.Thread = 2
	if spans, err := Timeline([]trace.Record{other}, 1, 1); err != nil || len(spans) != 0 {
		t.Errorf("cross-thread filtering: %v, %v", spans, err)
	}
}

func TestProfile(t *testing.T) {
	spans := []Span{
		{Region: 1, T0: 0, T1: 10},
		{Region: 1, T0: 20, T1: 40},
		{Region: 2, T0: 40, T1: 45},
	}
	prof := Profile(spans)
	if len(prof) != 2 {
		t.Fatalf("profile = %+v", prof)
	}
	if prof[0].Region != 1 || prof[0].Instances != 2 || prof[0].TotalNs != 30 {
		t.Errorf("row0 = %+v", prof[0])
	}
	if prof[0].MeanNs != 15 || prof[0].MinNs != 10 || prof[0].MaxNs != 20 {
		t.Errorf("row0 stats = %+v", prof[0])
	}
	if prof[1].Region != 2 {
		t.Errorf("row1 = %+v", prof[1])
	}
}
