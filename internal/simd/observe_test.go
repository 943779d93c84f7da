package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scrapeMetrics fetches /metrics and runs it through the strict exposition
// parser — every scrape in these tests is also a format-compliance check.
func scrapeMetrics(t *testing.T, baseURL string) []telemetry.Family {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	return fams
}

// metricValue finds one sample (family, sample name, exact label block) or
// fails the test.
func metricValue(t *testing.T, fams []telemetry.Family, family, sample, labels string) float64 {
	t.Helper()
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		if s, ok := f.Sample(sample, labels); ok {
			return s.Value
		}
		t.Fatalf("family %s has no sample %s{%s}", family, sample, labels)
	}
	t.Fatalf("no family %s in exposition", family)
	return 0
}

// TestMetricsEndpointCountsJobLifecycle pins the /metrics surface: the
// exposition is format-valid, and the counters advance exactly as jobs move
// through accept → run → done and the cache answers a repeat.
func TestMetricsEndpointCountsJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	c := &Client{BaseURL: ts.URL}

	if _, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"}); err != nil {
		t.Fatal(err)
	}
	fams := scrapeMetrics(t, ts.URL)
	checks := []struct {
		family, sample, labels string
		want                   float64
	}{
		{"simd_jobs_accepted_total", "simd_jobs_accepted_total", "", 1},
		{"simd_jobs_total", "simd_jobs_total", `outcome="done"`, 1},
		{"simd_cache_misses_total", "simd_cache_misses_total", "", 1},
		{"simd_cache_hits_total", "simd_cache_hits_total", "", 0},
		{"simd_run_seconds", "simd_run_seconds_count", "", 1},
		{"simd_queue_wait_seconds", "simd_queue_wait_seconds_count", "", 1},
		{"simd_jobs_running", "simd_jobs_running", "", 0},
		{"simd_draining", "simd_draining", "", 0},
	}
	for _, ck := range checks {
		if got := metricValue(t, fams, ck.family, ck.sample, ck.labels); got != ck.want {
			t.Errorf("%s{%s} = %g, want %g", ck.sample, ck.labels, got, ck.want)
		}
	}

	// The identical request is a cache hit: hits advance, accepted does not
	// (a cache answer never enters the queue).
	if _, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"}); err != nil {
		t.Fatal(err)
	}
	fams = scrapeMetrics(t, ts.URL)
	if got := metricValue(t, fams, "simd_cache_hits_total", "simd_cache_hits_total", ""); got != 1 {
		t.Errorf("cache_hits after repeat = %g, want 1", got)
	}
	if got := metricValue(t, fams, "simd_jobs_accepted_total", "simd_jobs_accepted_total", ""); got != 1 {
		t.Errorf("accepted after cache hit = %g, want still 1", got)
	}
}

// syncBuffer lets the test read log output that handler goroutines are
// still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestJobLifecycleSpans pins the structured log contract: one submit → run →
// done span sequence per job, every record keyed by the job's content hash.
func TestJobLifecycleSpans(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	res, err := (&Client{BaseURL: ts.URL}).Run(context.Background(), Request{Scenario: "simd_test_fast"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == "" {
		t.Fatal("no job key in response")
	}

	var msgs []string
	sc := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for sc.Scan() {
		var rec struct {
			Msg      string `json:"msg"`
			Key      string `json:"key"`
			Scenario string `json:"scenario"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		if rec.Key != res.Key {
			continue
		}
		if rec.Scenario != "simd_test_fast" {
			t.Errorf("span %q carries scenario %q", rec.Msg, rec.Scenario)
		}
		msgs = append(msgs, rec.Msg)
	}
	want := []string{"job submitted", "job running", "job done"}
	if strings.Join(msgs, ",") != strings.Join(want, ",") {
		t.Errorf("span sequence for %s = %v, want %v", res.Key, msgs, want)
	}
}

// outcomeProbe is a slog handler that checks, as each job outcome line is
// logged, whether the job's done channel is already closed.
type outcomeProbe struct {
	s *Server

	mu     sync.Mutex
	logged []string // outcome messages seen
	late   []string // outcome messages logged after done closed
}

func (h *outcomeProbe) Enabled(context.Context, slog.Level) bool { return true }
func (h *outcomeProbe) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *outcomeProbe) WithGroup(string) slog.Handler            { return h }

func (h *outcomeProbe) Handle(_ context.Context, r slog.Record) error {
	switch r.Message {
	case "job done", "job checkpointed", "job parked", "job partial", "job failed", "job panicked":
	default:
		return nil
	}
	var key string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "key" {
			key = a.Value.String()
			return false
		}
		return true
	})
	f, ok := h.s.Lookup(key)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.logged = append(h.logged, r.Message)
	if !ok || f.terminal() {
		h.late = append(h.late, r.Message)
	}
	return nil
}

// TestOutcomeLoggedBeforeDone pins that every job outcome line is logged
// before the job's done channel closes, so a client woken by done finds the
// job's log span complete. The probe checks the order at the moment each
// line is logged, so one job per outcome decides it.
func TestOutcomeLoggedBeforeDone(t *testing.T) {
	probe := &outcomeProbe{}
	s, err := New(Config{StateDir: t.TempDir(), Logger: slog.New(probe)})
	if err != nil {
		t.Fatal(err)
	}
	probe.s = s
	wait := func(f *flight) {
		t.Helper()
		select {
		case <-f.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s did not finish", f.key)
		}
	}
	submit := func(req Request) *flight {
		t.Helper()
		f, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	wait(submit(Request{Scenario: "simd_test_fast"}))
	wait(submit(Request{Scenario: "simd_test_panic"}))
	wait(submit(Request{Scenario: "simd_test_slow", Sampling: samplingSeed(1), TimeoutMs: 20}))
	parked := submit(Request{Scenario: "simd_test_slow", Sampling: samplingSeed(2)})
	waitFor(t, 5*time.Second, func() bool { return parked.status().Instances > 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wait(parked)

	probe.mu.Lock()
	defer probe.mu.Unlock()
	want := []string{"job done", "job panicked", "job partial", "job checkpointed"}
	if strings.Join(probe.logged, ",") != strings.Join(want, ",") {
		t.Errorf("outcomes logged = %v, want %v", probe.logged, want)
	}
	if len(probe.late) > 0 {
		t.Errorf("outcomes logged after done closed: %v", probe.late)
	}
}

// TestConcurrentScrapeDuringDrain hammers every read side — Server.Stats,
// /metrics, and the /v1/jobs/{key}/events stream — while a drain
// checkpoints a running job and parks a queued one. Run under -race this
// pins that observation never races with the state machine, and that every
// mid-drain exposition still parses.
func TestConcurrentScrapeDuringDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 4, StateDir: t.TempDir()})

	resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_slow"}, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("running job: %s", resp.Status)
	}
	var running Status
	if err := json.NewDecoder(resp.Body).Decode(&running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Running == 1 })
	if resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_slow", Sampling: samplingSeed(7)}, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: %s", resp.Status)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrapeErr := make(chan error, 64)
	wg.Add(2)
	//repro:spawn-ok test goroutine joined via wg before the test returns
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return // server closing down ends the scrape loop
			}
			_, perr := telemetry.ParseText(resp.Body)
			resp.Body.Close()
			if perr != nil {
				select {
				case scrapeErr <- perr:
				default:
				}
			}
		}
	}()
	//repro:spawn-ok test goroutine joined via wg before the test returns
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Stats()
		}
	}()

	// One events subscriber rides the running job through the drain.
	ectx, ecancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ecancel()
	ereq, _ := http.NewRequestWithContext(ectx, http.MethodGet, ts.URL+"/v1/jobs/"+running.Key+"/events", nil)
	eresp, err := http.DefaultClient.Do(ereq)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	events := make(chan string, 1)
	wg.Add(1)
	//repro:spawn-ok test goroutine joined via wg before the test returns
	go func() {
		defer wg.Done()
		last := ""
		sc := bufio.NewScanner(eresp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var st Status
				if json.Unmarshal([]byte(data), &st) == nil {
					last = st.State
				}
			}
		}
		events <- last
	}()

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	// The events stream ends itself: the handler sends the terminal status
	// once the job settles, then returns. Only time it out as a last resort.
	select {
	case last := <-events:
		if last != StateCheckpointed {
			t.Errorf("events stream ended on state %q, want %q", last, StateCheckpointed)
		}
	case <-time.After(10 * time.Second):
		t.Error("events stream did not terminate after drain")
	}
	ecancel()
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Errorf("mid-drain scrape failed: %v", err)
	default:
	}

	fams := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, fams, "simd_draining", "simd_draining", ""); got != 1 {
		t.Errorf("simd_draining after drain = %g, want 1", got)
	}
	if got := metricValue(t, fams, "simd_jobs_total", "simd_jobs_total", `outcome="checkpointed"`); got < 2 {
		t.Errorf("checkpointed outcome = %g, want both jobs (2)", got)
	}
	if got := metricValue(t, fams, "simd_jobs_parked_total", "simd_jobs_parked_total", ""); got < 1 {
		t.Errorf("parked = %g, want >= 1", got)
	}
	if got := metricValue(t, fams, "simd_checkpoint_bytes_total", "simd_checkpoint_bytes_total", ""); got <= 0 {
		t.Errorf("checkpoint bytes = %g, want > 0", got)
	}
	if got := metricValue(t, fams, "simd_checkpoint_write_seconds", "simd_checkpoint_write_seconds_count", ""); got < 1 {
		t.Errorf("checkpoint write count = %g, want >= 1", got)
	}
}

// doneLineLock is a slog handler that takes the server lock when a job logs
// "job done", just before the job records its outcome, and hands the held
// lock to the test through held.
type doneLineLock struct {
	s    *Server
	held chan struct{}
}

func (h *doneLineLock) Enabled(context.Context, slog.Level) bool { return true }
func (h *doneLineLock) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *doneLineLock) WithGroup(string) slog.Handler            { return h }

func (h *doneLineLock) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "job done" {
		h.s.mu.Lock()
		h.held <- struct{}{}
	}
	return nil
}

// TestRunningClearedBeforeClientRelease pins the order of a finished job's
// last two steps: it leaves the running set before done releases its
// waiting client. While the test holds the server lock the job cannot
// leave the running set, so its wait=1 client must stay blocked; the
// bounded wait only decides a pass, since a release inside it is the
// defect. Once released, both views of the running count — Stats and the
// simd_jobs_running gauge — must read 0 at once, with no polling.
func TestRunningClearedBeforeClientRelease(t *testing.T) {
	probe := &doneLineLock{held: make(chan struct{})}
	s, ts := newTestServer(t, Config{Logger: slog.New(probe)})
	probe.s = s
	c := &Client{BaseURL: ts.URL}

	for k := 0; k < 3; k++ {
		released := make(chan error, 1)
		//repro:spawn-ok test goroutine; every path below receives from released
		go func() {
			// A fresh sampling seed per submission: every one is simulated.
			_, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast", Sampling: samplingSeed(int64(100 + k))})
			released <- err
		}()
		<-probe.held
		select {
		case err := <-released:
			s.mu.Unlock()
			t.Fatalf("submission %d: client released (err %v) while its job still counted as running", k, err)
		case <-time.After(100 * time.Millisecond):
		}
		s.mu.Unlock()
		if err := <-released; err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Running != 0 {
			t.Fatalf("submission %d: Stats().Running = %d after its client was released", k, st.Running)
		}
		if got := metricValue(t, scrapeMetrics(t, ts.URL), "simd_jobs_running", "simd_jobs_running", ""); got != 0 {
			t.Fatalf("submission %d: simd_jobs_running = %g after its client was released", k, got)
		}
	}
}
