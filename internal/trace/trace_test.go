package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{TimeNs: 100, Task: 1, Thread: 1, Pairs: []TypeValue{{TypeRegion, 5}}},
		{TimeNs: 250, Task: 1, Thread: 1, Pairs: []TypeValue{
			{TypeSampleAddr, 0x1000}, {TypeSampleLatency, 230}, {TypeSampleSource, 3}}},
		{TimeNs: 300, Task: 1, Thread: 1, Pairs: []TypeValue{{TypeRegion, 0}}},
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks() != 1 || r.Threads() != 2 {
		t.Errorf("header = %d/%d", r.Tasks(), r.Threads())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, sampleRecords())
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(io.Discard, 0, 1, 0); err == nil {
		t.Error("zero tasks accepted")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, 1, 0)
	if err := w.Write(Record{TimeNs: 1, Task: 1, Thread: 1}); err == nil {
		t.Error("empty pairs accepted")
	}
	if err := w.Write(Record{TimeNs: 1, Task: 0, Thread: 1,
		Pairs: []TypeValue{{1, 1}}}); err == nil {
		t.Error("task 0 accepted")
	}
	// Time regression on the same thread rejected.
	ok := Record{TimeNs: 100, Task: 1, Thread: 1, Pairs: []TypeValue{{1, 1}}}
	if err := w.Write(ok); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.TimeNs = 50
	if err := w.Write(bad); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("regression err = %v", err)
	}
	// Regression on another thread is fine (independent clocks merged later).
	other := Record{TimeNs: 50, Task: 1, Thread: 2, Pairs: []TypeValue{{1, 1}}}
	if err := w.Write(other); err != nil {
		t.Errorf("cross-thread earlier time rejected: %v", err)
	}
	w.Close()
	if err := w.Write(ok); err == nil {
		t.Error("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// encodePRVRef is a frozen copy of the fmt-based record encoding Writer.Write
// used before it appended into a reused buffer: the reference the writer's
// bytes are compared against.
func encodePRVRef(r Record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "2:1:1:%d:%d:%d", r.Task, r.Thread, r.TimeNs)
	for _, p := range r.Pairs {
		fmt.Fprintf(&sb, ":%d:%d", p.Type, p.Value)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// TestWriterMatchesFmtReference pins the PRV record bytes to the old fmt
// encoding on the extremes of every field: min/max int64 values, the
// largest type and timestamp, multi-digit task and thread ids and 1 to 20
// pairs per record.
func TestWriterMatchesFmtReference(t *testing.T) {
	edgeValues := []int64{0, -1, 1, 9, 10, -10, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	edgeTypes := []uint32{0, 1, TypeRegion, TypeCounterBase + 7, math.MaxUint32}
	rng := rand.New(rand.NewSource(13))
	var recs []Record
	now := uint64(0)
	for n := 1; n <= 20; n++ {
		for k := 0; k < 5; k++ {
			now += uint64(rng.Intn(1 << 20))
			rec := Record{TimeNs: now, Task: 1 + rng.Intn(120), Thread: 1 + rng.Intn(120)}
			for j := 0; j < n; j++ {
				p := TypeValue{Type: rng.Uint32(), Value: rng.Int63() - rng.Int63()}
				if rng.Intn(2) == 0 {
					p = TypeValue{Type: edgeTypes[rng.Intn(len(edgeTypes))], Value: edgeValues[rng.Intn(len(edgeValues))]}
				}
				rec.Pairs = append(rec.Pairs, p)
			}
			recs = append(recs, rec)
		}
	}
	recs = append(recs,
		Record{TimeNs: math.MaxUint64, Task: 10, Thread: 99, Pairs: []TypeValue{{math.MaxUint32, math.MinInt64}}},
		Record{TimeNs: math.MaxUint64, Task: math.MaxInt32, Thread: math.MaxInt32, Pairs: []TypeValue{{math.MaxUint32, math.MaxInt64}}})

	var got bytes.Buffer
	w, err := NewWriter(&got, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := "#Paraver (0):1:1\n"
	for _, r := range recs {
		want += encodePRVRef(r)
	}
	if got.String() != want {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs:\ngot  %.200q\nwant %.200q", i, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("output has %d lines, want %d", len(gl), len(wl))
	}
}

// TestWriterWriteDoesNotAllocate pins steady-state Write of a
// Figure-1-shaped record (7 sample pairs + 8 counter pairs) at zero
// allocations.
func TestWriterWriteDoesNotAllocate(t *testing.T) {
	w, err := NewWriter(io.Discard, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{TimeNs: 1, Task: 1, Thread: 1}
	for typ := TypeSampleAddr; typ <= TypeSampleSize; typ++ {
		rec.Pairs = append(rec.Pairs, TypeValue{Type: typ, Value: 0x2adf00001000 + int64(typ)})
	}
	for c := uint32(0); c < 8; c++ {
		rec.Pairs = append(rec.Pairs, TypeValue{Type: TypeCounterBase + c, Value: 123456789 * int64(c+1)})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.TimeNs += 400
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Write allocates %.1f times per record, want 0", allocs)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewReader(strings.NewReader("garbage\n")); err == nil {
		t.Error("bad header accepted")
	}
	badBodies := []string{
		"1:1:1:1:1:100:1:1",                     // unsupported kind
		"2:1:1:1:1:100:7",                       // odd pairs
		"2:1:1",                                 // short
		"2:1:1:x:1:100:1:1",                     // bad task
		"2:1:1:1:1:abc:1:1",                     // bad time
		"2:1:1:1:1:100:999999999999999999999:1", // bad type
	}
	for _, body := range badBodies {
		r, err := NewReader(strings.NewReader("#Paraver (0):1:1\n" + body + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("body %q accepted", body)
		}
	}
	// Comments and blank lines are skipped.
	r, _ := NewReader(strings.NewReader("#Paraver (0):1:1\n\n# comment\n2:1:1:1:1:5:1:2\n"))
	rec, err := r.Next()
	if err != nil || rec.TimeNs != 5 {
		t.Errorf("skipping comments: %+v, %v", rec, err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("EOF expected, got %v", err)
	}
}

func TestRecordGetHas(t *testing.T) {
	r := sampleRecords()[1]
	v, ok := r.Get(TypeSampleLatency)
	if !ok || v != 230 {
		t.Errorf("Get = %d, %v", v, ok)
	}
	if r.Has(TypeRegion) {
		t.Error("Has false positive")
	}
	if _, ok := r.Get(TypeRegion); ok {
		t.Error("Get false positive")
	}
}

func TestMergeSortsStably(t *testing.T) {
	a := []Record{
		{TimeNs: 10, Task: 1, Thread: 1, Pairs: []TypeValue{{1, 1}}},
		{TimeNs: 30, Task: 1, Thread: 1, Pairs: []TypeValue{{1, 2}}},
	}
	b := []Record{
		{TimeNs: 5, Task: 1, Thread: 2, Pairs: []TypeValue{{1, 3}}},
		{TimeNs: 10, Task: 1, Thread: 2, Pairs: []TypeValue{{1, 4}}},
		{TimeNs: 40, Task: 1, Thread: 2, Pairs: []TypeValue{{1, 5}}},
	}
	m := Merge(a, b)
	if len(m) != 5 {
		t.Fatalf("merged %d records", len(m))
	}
	times := []uint64{5, 10, 10, 30, 40}
	for i, r := range m {
		if r.TimeNs != times[i] {
			t.Errorf("merge order wrong at %d: %d", i, r.TimeNs)
		}
	}
	// Equal timestamps ordered by thread.
	if m[1].Thread != 1 || m[2].Thread != 2 {
		t.Error("tie-break by thread failed")
	}
}
