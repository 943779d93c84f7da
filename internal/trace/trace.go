// Package trace implements an Extrae/Paraver-like event trace format. A
// trace is a chronological stream of records; each record carries a
// timestamp, the emitting (task, thread) pair and a list of (type, value)
// event pairs — the same shape as Paraver PRV event records, where one
// timestamp may carry several semantic types (a PEBS sample, for example, is
// one record with address, latency, source, IP and call-stack pairs).
//
// Records are encoded in a PRV-compatible text form, next to the PCF
// metadata file that maps numeric event types and values to human-readable
// labels.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Event type identifiers. The numbering follows Extrae conventions: user
// function events in the 60000xxx range, sampling events in a dedicated
// range, hardware counters in the 42000xxx range.
const (
	// TypeRegion marks entry (value = region id) and exit (value = 0) of an
	// instrumented user function / code region.
	TypeRegion uint32 = 60000019

	// Sampling event types: one PEBS sample emits one record holding these.
	TypeSampleAddr    uint32 = 32000001 // referenced address
	TypeSampleLatency uint32 = 32000002 // access cost in cycles
	TypeSampleSource  uint32 = 32000003 // data source (memhier.DataSource)
	TypeSampleStore   uint32 = 32000004 // 1 store, 0 load
	TypeSampleIP      uint32 = 32000005 // instruction pointer
	TypeSampleStack   uint32 = 32000006 // call-stack id
	TypeSampleSize    uint32 = 32000007 // access width in bytes

	// Memory-object event types (allocation instrumentation).
	TypeAllocAddr  uint32 = 33000001 // new object base address
	TypeAllocSize  uint32 = 33000002 // new object size
	TypeAllocStack uint32 = 33000003 // allocation call-stack id
	TypeFreeAddr   uint32 = 33000004 // freed object base address

	// TypeCounterBase + cpu.CounterID carries a hardware counter snapshot.
	TypeCounterBase uint32 = 42000000
)

// Record is one trace record: several (type, value) pairs at one timestamp
// on one software thread.
type Record struct {
	// TimeNs is the simulated wall-clock timestamp in nanoseconds.
	TimeNs uint64
	// Task and Thread identify the emitting object (1-based, like Paraver).
	Task, Thread int
	// Pairs are the event (type, value) pairs, in emission order.
	Pairs []TypeValue
}

// TypeValue is one event type/value pair.
type TypeValue struct {
	Type  uint32
	Value int64
}

// Get returns the value of the first pair with the given type.
func (r *Record) Get(typ uint32) (int64, bool) {
	for _, p := range r.Pairs {
		if p.Type == typ {
			return p.Value, true
		}
	}
	return 0, false
}

// Has reports whether the record carries the given event type.
func (r *Record) Has(typ uint32) bool {
	_, ok := r.Get(typ)
	return ok
}

// Writer emits records in PRV text form. Records must be written in
// non-decreasing time order per (task, thread); the Merger handles global
// ordering across threads.
type Writer struct {
	w      *bufio.Writer
	buf    []byte // one record's encoding, reused by every Write
	lastNs map[[2]int]uint64
	closed bool
}

// NewWriter wraps w. The PRV header line is written immediately; durationNs
// may be 0 if unknown at creation (Paraver tolerates it for our purposes).
func NewWriter(w io.Writer, nTasks, nThreads int, durationNs uint64) (*Writer, error) {
	if nTasks <= 0 || nThreads <= 0 {
		return nil, fmt.Errorf("trace: need at least one task and thread")
	}
	bw := bufio.NewWriter(w)
	// Simplified PRV header: #Paraver (duration):nTasks:nThreads
	if _, err := fmt.Fprintf(bw, "#Paraver (%d):%d:%d\n", durationNs, nTasks, nThreads); err != nil {
		return nil, err
	}
	return &Writer{w: bw, lastNs: make(map[[2]int]uint64)}, nil
}

// ErrTimeRegression reports out-of-order writes on one thread.
var ErrTimeRegression = errors.New("trace: record time precedes previous record on same thread")

// Write emits one record. A record is encoded into a scratch buffer the
// Writer keeps, so steady-state writes do not allocate.
func (tw *Writer) Write(r Record) error {
	if tw.closed {
		return errors.New("trace: write after Close")
	}
	if len(r.Pairs) == 0 {
		return errors.New("trace: record with no event pairs")
	}
	if r.Task <= 0 || r.Thread <= 0 {
		return fmt.Errorf("trace: task/thread must be 1-based, got %d/%d", r.Task, r.Thread)
	}
	key := [2]int{r.Task, r.Thread}
	if last, ok := tw.lastNs[key]; ok && r.TimeNs < last {
		return fmt.Errorf("%w: %d < %d", ErrTimeRegression, r.TimeNs, last)
	}
	tw.lastNs[key] = r.TimeNs
	// Paraver event record: 2:cpu:appl:task:thread:time:type:value...
	b := append(tw.buf[:0], "2:1:1:"...)
	b = strconv.AppendInt(b, int64(r.Task), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(r.Thread), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, r.TimeNs, 10)
	for _, p := range r.Pairs {
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(p.Type), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, p.Value, 10)
	}
	b = append(b, '\n')
	tw.buf = b
	if _, err := tw.w.Write(b); err != nil {
		return err
	}
	return nil
}

// Close flushes buffered output. The underlying writer is not closed.
func (tw *Writer) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	return tw.w.Flush()
}

// Reader parses PRV text traces produced by Writer.
type Reader struct {
	s        *bufio.Scanner
	nTasks   int
	nThreads int
	line     int
}

// NewReader parses the header and prepares to stream records.
func NewReader(r io.Reader) (*Reader, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<20), 1<<20)
	if !s.Scan() {
		if err := s.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("trace: empty input")
	}
	header := s.Text()
	var dur uint64
	var tasks, threads int
	if _, err := fmt.Sscanf(header, "#Paraver (%d):%d:%d", &dur, &tasks, &threads); err != nil {
		return nil, fmt.Errorf("trace: bad header %q: %w", header, err)
	}
	return &Reader{s: s, nTasks: tasks, nThreads: threads, line: 1}, nil
}

// Tasks returns the task count declared in the header.
func (tr *Reader) Tasks() int { return tr.nTasks }

// Threads returns the per-task thread count declared in the header.
func (tr *Reader) Threads() int { return tr.nThreads }

// Next returns the next record, or io.EOF at end of trace.
func (tr *Reader) Next() (Record, error) {
	for tr.s.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseLine(line)
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", tr.line, err)
		}
		return rec, nil
	}
	if err := tr.s.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

func parseLine(line string) (Record, error) {
	parts := strings.Split(line, ":")
	// 2:cpu:appl:task:thread:time:type:value[...]
	if len(parts) < 8 {
		return Record{}, fmt.Errorf("short record %q", line)
	}
	if parts[0] != "2" {
		return Record{}, fmt.Errorf("unsupported record kind %q", parts[0])
	}
	if (len(parts)-6)%2 != 0 {
		return Record{}, fmt.Errorf("odd type/value list in %q", line)
	}
	task, err := strconv.Atoi(parts[3])
	if err != nil {
		return Record{}, fmt.Errorf("bad task: %w", err)
	}
	thread, err := strconv.Atoi(parts[4])
	if err != nil {
		return Record{}, fmt.Errorf("bad thread: %w", err)
	}
	tns, err := strconv.ParseUint(parts[5], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad time: %w", err)
	}
	rec := Record{TimeNs: tns, Task: task, Thread: thread}
	for i := 6; i < len(parts); i += 2 {
		typ, err := strconv.ParseUint(parts[i], 10, 32)
		if err != nil {
			return Record{}, fmt.Errorf("bad type: %w", err)
		}
		val, err := strconv.ParseInt(parts[i+1], 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("bad value: %w", err)
		}
		rec.Pairs = append(rec.Pairs, TypeValue{Type: uint32(typ), Value: val})
	}
	return rec, nil
}

// ReadAll drains a reader into a slice.
func ReadAll(tr *Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// recordLess orders records by (time, task, thread) — the merge key.
func recordLess(a, b *Record) bool {
	if a.TimeNs != b.TimeNs {
		return a.TimeNs < b.TimeNs
	}
	if a.Task != b.Task {
		return a.Task < b.Task
	}
	return a.Thread < b.Thread
}

// Merge combines several record streams into one chronologically sorted
// stream (stable across equal timestamps by input order, then task/thread).
// Each input stream is first stably sorted on its own (monitor logs are
// mostly chronological but buffered PEBS drains append sample records out
// of order; already-sorted streams are detected and left alone), then the
// k sorted streams are combined with a k-way heap merge — O(n log k)
// instead of the O(n log n) of re-sorting the concatenation, which is what
// this replaced. Equal keys resolve to the lowest input stream first, and
// per-stream order is preserved, so the output is byte-identical to the
// old concatenate-and-stable-sort. It materializes the inputs; traces here
// are analysis-sized, not production-sized.
func Merge(streams ...[]Record) []Record {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	// Copy each stream into one backing buffer and sort the segments that
	// need it (the inputs are the monitors' live logs and must not move).
	buf := make([]Record, 0, total)
	segs := make([][]Record, 0, len(streams))
	for _, s := range streams {
		if len(s) == 0 {
			continue
		}
		start := len(buf)
		buf = append(buf, s...)
		seg := buf[start : start+len(s)]
		sorted := true
		for i := 1; i < len(seg); i++ {
			if recordLess(&seg[i], &seg[i-1]) {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.SliceStable(seg, func(i, j int) bool { return recordLess(&seg[i], &seg[j]) })
		}
		segs = append(segs, seg)
	}
	if len(segs) == 1 {
		return segs[0]
	}
	// K-way merge via a binary heap of stream heads, keyed by (record key,
	// stream index) so ties pop from the lowest stream — concatenation
	// order, matching the old stable sort.
	heap := make([]int, 0, len(segs)) // heap of segment indices
	less := func(a, b int) bool {
		ra, rb := &segs[a][0], &segs[b][0]
		if recordLess(ra, rb) {
			return true
		}
		if recordLess(rb, ra) {
			return false
		}
		return a < b
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := range segs {
		heap = append(heap, i)
		up(len(heap) - 1)
	}
	out := make([]Record, 0, total)
	for len(heap) > 0 {
		s := heap[0]
		out = append(out, segs[s][0])
		segs[s] = segs[s][1:]
		if len(segs[s]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}
