package telemetry

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpositionFormatCompliance is the format contract: everything the
// registry can emit must round-trip through the strict v0.0.4 parser. The
// registry under test exercises every instrument kind, labels needing
// escapes, multi-series families and an empty histogram.
func TestExpositionFormatCompliance(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Terminal job outcomes.", "outcome", "done")
	c2 := r.Counter("jobs_total", "Terminal job outcomes.", "outcome", "failed")
	r.GaugeFunc("queue_depth", "Jobs waiting to run.", func() float64 { return 7 })
	r.GaugeFunc("draining", "1 while a drain is in progress.", func() float64 { return 1 })
	h := r.Histogram("run_seconds", "Wall time per simulation.", []float64{0.1, 1, 10})
	r.Histogram("empty_seconds", "Never observed.", []float64{1})
	r.Counter("weird_total", `Help with \ backslash and`+"\n"+`newline.`, "path", `C:\tmp "x"`+"\n")

	c.Add(3)
	c2.Inc()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition rejected by parser: %v\nexposition:\n%s", err, text)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	jt := byName["jobs_total"]
	if jt.Type != TypeCounter || jt.Help != "Terminal job outcomes." {
		t.Fatalf("jobs_total family = %+v", jt)
	}
	if s, ok := jt.Sample("jobs_total", `outcome="done"`); !ok || s.Value != 3 {
		t.Fatalf("jobs_total{outcome=done} = %+v ok=%v", s, ok)
	}
	if s, ok := jt.Sample("jobs_total", `outcome="failed"`); !ok || s.Value != 1 {
		t.Fatalf("jobs_total{outcome=failed} = %+v ok=%v", s, ok)
	}

	if s, ok := byName["queue_depth"].Sample("queue_depth", ""); !ok || s.Value != 7 {
		t.Fatalf("queue_depth = %+v ok=%v", s, ok)
	}
	if s, ok := byName["draining"].Sample("draining", ""); !ok || s.Value != 1 {
		t.Fatalf("draining = %+v ok=%v", s, ok)
	}

	rs := byName["run_seconds"]
	if rs.Type != TypeHistogram {
		t.Fatalf("run_seconds type = %q", rs.Type)
	}
	wantBuckets := map[string]float64{
		`le="0.1"`:  1,
		`le="1"`:    2,
		`le="10"`:   2,
		`le="+Inf"`: 3,
	}
	for labels, want := range wantBuckets {
		s, ok := rs.Sample("run_seconds_bucket", labels)
		if !ok || s.Value != want {
			t.Fatalf("run_seconds_bucket{%s} = %+v ok=%v want %g", labels, s, ok, want)
		}
	}
	if s, _ := rs.Sample("run_seconds_count", ""); s.Value != 3 {
		t.Fatalf("run_seconds_count = %g", s.Value)
	}
	if s, _ := rs.Sample("run_seconds_sum", ""); math.Abs(s.Value-99.55) > 1e-9 {
		t.Fatalf("run_seconds_sum = %g", s.Value)
	}

	// Escapes round-trip: the label value comes back with its original
	// backslash, quote and newline.
	wt := byName["weird_total"]
	if wt.Help != `Help with \ backslash and`+"\n"+`newline.` {
		t.Fatalf("weird_total help = %q", wt.Help)
	}
	if len(wt.Samples) != 1 {
		t.Fatalf("weird_total samples = %+v", wt.Samples)
	}
	labels, err := ParseLabels(wt.Samples[0].Labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 || labels[0].Value != `C:\tmp "x"`+"\n" {
		t.Fatalf("escaped label round-trip = %+v", labels)
	}
}

// TestExpositionDeterministic pins family and series ordering: two scrapes
// of an idle registry are byte-identical, and families appear sorted.
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "z")
	r.Counter("aa_total", "a")
	r.Counter("mm_total", "m", "k", "b")
	r.Counter("mm_total", "m", "k", "a")

	var b1, b2 strings.Builder
	if err := r.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("scrapes differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	idxA := strings.Index(b1.String(), "aa_total")
	idxM := strings.Index(b1.String(), "mm_total")
	idxZ := strings.Index(b1.String(), "zz_total")
	if !(idxA < idxM && idxM < idxZ) {
		t.Fatalf("families not sorted:\n%s", b1.String())
	}
	// Series within a family sorted by label block.
	ka := strings.Index(b1.String(), `mm_total{k="a"}`)
	kb := strings.Index(b1.String(), `mm_total{k="b"}`)
	if ka < 0 || kb < 0 || ka > kb {
		t.Fatalf("series not sorted:\n%s", b1.String())
	}
}

// TestParserRejectsMalformed pins the strictness promises the CI smoke
// relies on: promcheck must fail on broken exposition, not shrug.
func TestParserRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no type", "foo 1\n"},
		{"unknown type", "# TYPE foo banana\nfoo 1\n"},
		{"duplicate series", "# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"bad value", "# TYPE foo counter\nfoo one\n"},
		{"unterminated labels", "# TYPE foo counter\nfoo{a=\"b 1\n"},
		{"bad escape", "# TYPE foo counter\nfoo{a=\"\\q\"} 1\n"},
		{"histogram no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"histogram count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"},
		{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"},
		{"type after samples", "# TYPE foo counter\nfoo 1\n# TYPE foo counter\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("parser accepted malformed input:\n%s", tc.in)
			}
		})
	}
}

// TestParserAcceptsForeignExposition checks the parser is not overfitted to
// our writer: timestamps, plain comments, blank lines and summaries parse.
func TestParserAcceptsForeignExposition(t *testing.T) {
	in := `# scraped from somewhere else
# HELP http_requests_total The total number of HTTP requests.
# TYPE http_requests_total counter
http_requests_total{method="post",code="200"} 1027 1395066363000

# TYPE rpc_duration_seconds summary
rpc_duration_seconds{quantile="0.5"} 4.27
rpc_duration_seconds_sum 1.7560473e+07
rpc_duration_seconds_count 2693
`
	fams, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("families = %+v", fams)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("x_total", "x")
	mustPanic("duplicate series", func() { r.Counter("x_total", "x") })
	mustPanic("type clash", func() { r.GaugeFunc("x_total", "x", func() float64 { return 0 }) })
	mustPanic("bad metric name", func() { r.Counter("x-y", "x") })
	mustPanic("bad label name", func() { r.Counter("y_total", "y", "0bad", "v") })
	mustPanic("le label", func() { r.Counter("z_total", "z", "le", "v") })
	mustPanic("odd labels", func() { r.Counter("w_total", "w", "k") })
	mustPanic("bounds not ascending", func() { r.Histogram("h_seconds", "h", []float64{1, 1}) })
}

// TestConcurrentUpdatesAndScrapes drives writers and scrapers in parallel;
// under -race this pins the lock-free write-side claim, and every scrape
// must still parse.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	h := r.Histogram("lat_seconds", "lat", DefBuckets)
	var depth atomic.Int64
	r.GaugeFunc("depth", "depth", func() float64 { return float64(depth.Load()) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				c.Inc()
				depth.Store(int64(i % 10))
				h.Observe(float64(i%100) / 100)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(strings.NewReader(b.String())); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", i, err, b.String())
		}
	}
	close(stop)
	wg.Wait()

	var observed uint64
	for i := range h.counts {
		observed += h.counts[i].Load()
	}
	if c.Value() == 0 || observed == 0 {
		t.Fatal("writers made no progress")
	}
}

func TestProgressSnapshot(t *testing.T) {
	var p Progress
	p.SetTotal(128)
	p.SetInstances(32)
	p.SetCPU(1000, 2000)
	p.SetLevelCount(2)
	p.SetLevel(0, 90, 10)
	p.SetLevel(1, 8, 2)
	p.SetLevel(ProgressLevels+3, 1, 1) // out of range: dropped

	s := p.Snapshot()
	if s.InstancesDone != 32 || s.InstancesTotal != 128 {
		t.Fatalf("instances = %d/%d", s.InstancesDone, s.InstancesTotal)
	}
	if s.Cycles != 1000 || s.Instructions != 2000 {
		t.Fatalf("cpu = %d/%d", s.Cycles, s.Instructions)
	}
	if s.NumLevels != 2 || s.Levels[0] != (LevelProgress{90, 10}) || s.Levels[1] != (LevelProgress{8, 2}) {
		t.Fatalf("levels = %+v", s)
	}
	if got := s.Percent(); got != 25 {
		t.Fatalf("percent = %g", got)
	}
	if (ProgressSnapshot{}).Percent() != -1 {
		t.Fatal("unknown total should report -1")
	}
	// Level counts beyond the slot array clamp instead of overflowing.
	p.SetLevelCount(99)
	if p.Snapshot().NumLevels != ProgressLevels {
		t.Fatalf("level clamp = %d", p.Snapshot().NumLevels)
	}
}

// TestInstrumentsAllocFree pins the hot-path contract the noalloc analyzer
// enforces statically: updating instruments performs zero allocations.
func TestInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "a")
	h := r.Histogram("c_seconds", "c", DefBuckets)
	var p Progress
	n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(2)
		h.Observe(0.42)
		p.SetInstances(1)
		p.SetCPU(2, 3)
		p.SetLevel(0, 4, 5)
		_ = p.Snapshot()
	})
	if n != 0 {
		t.Fatalf("instrument updates allocate: %g allocs/op", n)
	}
}
