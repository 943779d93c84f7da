// Package telemetry is the repository's dependency-free metrics core: atomic
// counters, scrape-time gauges and fixed-bucket histograms behind a registry that writes
// Prometheus text-format v0.0.4 exposition. It exists so the production
// surface (the simd server, the sweep engine, the CLIs) can be observed
// without perturbing the property the whole repository is built on —
// byte-exact deterministic simulation:
//
//   - Hot paths never pay for observation. Updating an instrument is one or
//     two atomic operations; no instrument ever reads the wall clock
//     (callers that want durations measure them outside the simulation and
//     pass the value in), allocates, or takes a lock. The package is on the
//     reprolint detrand surface and its update paths carry //repro:noalloc.
//   - Scrapes snapshot, writers don't. All aggregation (cumulative
//     histogram buckets, family grouping, deterministic ordering) happens
//     at scrape time in WriteText; the write side is wait-free.
//   - Exposition is pinned. The text format is exercised by a
//     format-compliance test suite built on this package's own parser
//     (parse.go), which cmd/promcheck reuses to validate live /metrics
//     output in CI.
//
// Instruments are registered once (typically at server construction) and
// updated forever; registering the same (name, labels) series twice, or the
// same family under two types, panics — both are programming errors, not
// runtime conditions.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Add increases the counter.
//
//repro:noalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increases the counter by one.
//
//repro:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: upper bounds are chosen at
// registration and never change, so an observation is a linear scan over a
// handful of bounds plus two atomic adds. The +Inf bucket is implicit.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// DefBuckets is the default latency bucket layout (seconds), spanning the
// 1ms..10s range a simulation job or a checkpoint write lands in.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Observe records one value.
//
//repro:noalloc
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Metric type names, as they appear on exposition TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// series is one registered (labels, instrument) pair of a family.
type series struct {
	labels  string // rendered label block without braces ("" when unlabelled)
	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing a metric name: one HELP/TYPE header,
// many label sets.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]bool
}

// Registry holds registered instruments and writes their exposition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter registers (or re-uses the family of) a counter series. Labels are
// alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, TypeCounter, &series{labels: renderLabels(labels), counter: c})
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time — the
// natural shape for state that already lives under someone else's lock
// (queue depth, drain flag): the owner pays nothing until a scrape asks.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, TypeGauge, &series{labels: renderLabels(labels), gaugeFn: fn})
}

// Histogram registers a fixed-bucket histogram series. Bounds must be
// ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending at %v", name, bounds[i]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.register(name, help, TypeHistogram, &series{labels: renderLabels(labels), hist: h})
	return h
}

func (r *Registry) register(name, help, typ string, s *series) {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]bool)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	if f.byLabels[s.labels] {
		panic(fmt.Sprintf("telemetry: duplicate series %s{%s}", name, s.labels))
	}
	f.byLabels[s.labels] = true
	f.series = append(f.series, s)
}

// renderLabels validates alternating key/value pairs and renders them in
// the given order (callers pass a fixed order, so exposition is stable).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("telemetry: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if !labelNameRe.MatchString(kv[i]) || kv[i] == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q", kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the text-format label escapes: backslash, quote
// and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// ContentType is the scrape response content type for this exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText writes the full exposition: families sorted by name, series
// sorted by label block, HELP and TYPE once per family. Instrument values
// are read atomically during the write — writers never block on a scrape.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		srs := append([]*series(nil), f.series...)
		sort.Slice(srs, func(i, j int) bool { return srs[i].labels < srs[j].labels })
		for _, s := range srs {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.counter != nil:
		writeSample(b, f.name, s.labels, float64(s.counter.Value()))
	case s.gaugeFn != nil:
		writeSample(b, f.name, s.labels, s.gaugeFn())
	case s.hist != nil:
		h := s.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			writeSample(b, f.name+"_bucket", joinLabels(s.labels, `le="`+formatFloat(bound)+`"`), float64(cum))
		}
		cum += h.counts[len(h.bounds)].Load()
		writeSample(b, f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`), float64(cum))
		writeSample(b, f.name+"_sum", s.labels, h.Sum())
		writeSample(b, f.name+"_count", s.labels, float64(cum))
	}
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// formatFloat renders a sample value the way Prometheus clients do: shortest
// representation that round-trips, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
