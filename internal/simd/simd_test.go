package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/machspec"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// The test scenarios. Registration is per test binary, so these never leak
// into the production registry or the goldens.
//
//   - simd_test_fast: small and quick — the byte-identity and coalescing
//     workhorse.
//   - simd_test_slow: enough iterations (and so instance boundaries) that a
//     drain or a deadline reliably lands mid-run.
//   - simd_test_panic: panics inside the simulated kernel — the containment
//     probe.
func init() {
	mustRegister := func(sc scenario.Scenario) {
		if err := scenario.Register(sc); err != nil {
			panic(err)
		}
	}
	mustRegister(scenario.Scenario{
		Name:        "simd_test_fast",
		Description: "test: small stream",
		Hierarchy:   "small",
		Threads:     1, Iters: 4, Period: 150,
		Workload: func() workloads.PartitionedWorkload { return workloads.NewStream(1 << 9) },
	})
	mustRegister(scenario.Scenario{
		Name:        "simd_test_slow",
		Description: "test: paced stream (reliably in flight when drains/deadlines land)",
		Hierarchy:   "small",
		Threads:     1, Iters: 800, Period: 150,
		Workload: func() workloads.PartitionedWorkload {
			return &pacedWorkload{Stream: workloads.NewStream(1 << 11), delay: 200 * time.Microsecond}
		},
	})
	mustRegister(scenario.Scenario{
		Name:        "simd_test_panic",
		Description: "test: kernel panics mid-run",
		Hierarchy:   "small",
		Threads:     1, Iters: 4, Period: 150,
		Workload: func() workloads.PartitionedWorkload {
			return &panicWorkload{Stream: workloads.NewStream(1 << 9)}
		},
	})
}

// pacedWorkload delays each run window by a fixed wall-clock amount without
// touching the simulated instruction stream (the sleep happens outside the
// monitor, so metrics bytes are unchanged). The drain and deadline tests
// need a job that is still in flight when the event lands, with or without
// the race detector's slowdown — simulation speed alone is not a reliable
// clock.
type pacedWorkload struct {
	*workloads.Stream
	delay time.Duration
}

func (p *pacedWorkload) RunPartitionRange(ctx *workloads.Ctx, startIter, endIter, lo, hi int) error {
	time.Sleep(p.delay)
	return p.Stream.RunPartitionRange(ctx, startIter, endIter, lo, hi)
}

// panicWorkload sets up like a stream but panics the moment a run window
// executes — the stand-in for a bug in a simulated kernel.
type panicWorkload struct{ *workloads.Stream }

func (p *panicWorkload) RunPartitionRange(ctx *workloads.Ctx, startIter, endIter, lo, hi int) error {
	panic("simd_test: injected workload panic")
}

// newTestServer builds a Server plus its HTTP front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// runScenario runs a registered scenario in-process.
func runScenario(t *testing.T, name string, opts scenario.Options) *scenario.Metrics {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	m, err := scenario.Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// localBytes runs the scenario in-process — the reference every server
// result must match byte for byte.
func localBytes(t *testing.T, name string) []byte {
	t.Helper()
	b, err := runScenario(t, name, scenario.Options{}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServerByteIdentityAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	c := &Client{BaseURL: ts.URL}
	want := localBytes(t, "simd_test_fast")

	res, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceSimulated {
		t.Errorf("first run source = %q, want %q", res.Source, SourceSimulated)
	}
	if !bytes.Equal(res.Metrics, want) {
		t.Fatalf("server metrics differ from local run:\nserver: %d bytes\nlocal:  %d bytes", len(res.Metrics), len(want))
	}

	// Same job again: served from the shared cache, still byte-identical,
	// no second simulation.
	res2, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != SourceCache {
		t.Errorf("second run source = %q, want %q", res2.Source, SourceCache)
	}
	if !bytes.Equal(res2.Metrics, want) {
		t.Fatal("cached metrics differ from local run")
	}
	if st := s.Stats(); st.Simulated != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 1 simulated and 1 cache hit", st)
	}

	// The golden scenario: the server's bytes for a pinned scenario are the
	// pinned bytes.
	golden, err := os.ReadFile(filepath.Join("..", "scenario", "testdata", "golden", "stream_triad_1t.json"))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := c.Run(context.Background(), Request{Scenario: "stream_triad_1t"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res3.Metrics, golden) {
		t.Fatal("server metrics for stream_triad_1t differ from the golden file")
	}
}

func TestCoalescingSimulatesOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, MaxQueued: 16})
	want := localBytes(t, "simd_test_slow")

	const clients = 8
	results := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL}
			res, err := c.Run(context.Background(), Request{Scenario: "simd_test_slow"})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = res.Metrics
		}(i)
	}
	wg.Wait()

	for i, b := range results {
		if !bytes.Equal(b, want) {
			t.Errorf("client %d got divergent bytes (%d vs %d)", i, len(b), len(want))
		}
	}
	st := s.Stats()
	if st.Simulated != 1 {
		t.Errorf("stats.Simulated = %d, want exactly 1 (coalescing)", st.Simulated)
	}
	if st.Coalesced == 0 {
		t.Errorf("stats.Coalesced = 0, want > 0 for %d duplicate clients", clients)
	}
}

// submitRaw posts a job without the client's retry layer, returning the
// response for header-level assertions.
func submitRaw(t *testing.T, baseURL string, req Request, wait bool) *http.Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	url := baseURL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestAdmissionControlShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1})

	// Occupy the single worker, then the single queue slot, with distinct
	// keys (distinct seeds) so nothing coalesces.
	mkReq := func(v int64) Request {
		return Request{Scenario: "simd_test_slow", Sampling: samplingSeed(v)}
	}
	if resp := submitRaw(t, ts.URL, mkReq(1), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: %s", resp.Status)
	}
	waitFor(t, time.Second, func() bool { return s.Stats().Running == 1 })
	if resp := submitRaw(t, ts.URL, mkReq(2), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: %s", resp.Status)
	}

	// The third distinct job is over capacity: shed with 429 + Retry-After,
	// immediately — never queued, never hung.
	resp := submitRaw(t, ts.URL, mkReq(3), false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity job: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("stats.Shed = %d, want 1", st.Shed)
	}

	// A duplicate of the running job still coalesces: duplicates are free
	// and must not be shed.
	if resp := submitRaw(t, ts.URL, mkReq(1), false); resp.StatusCode != http.StatusAccepted {
		t.Errorf("coalescing duplicate was shed: %s", resp.Status)
	}
}

// samplingSeed builds a sampling override whose only effect is to give the
// request a distinct cache key.
func samplingSeed(v int64) *machspec.Sampling {
	return &machspec.Sampling{Seed: &v}
}

func TestDeadlineReturnsMarkedPartial(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_slow", TimeoutMs: 80}, true)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline job: %s, want 504", resp.Status)
	}
	if resp.Header.Get("X-Simd-Partial") != "1" {
		t.Error("504 without X-Simd-Partial")
	}
	var m struct {
		Partial bool   `json:"partial"`
		Fault   string `json:"fault"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !m.Partial || m.Fault == "" {
		t.Errorf("partial body not marked: partial=%t fault=%q", m.Partial, m.Fault)
	}
}

func TestPanicPoisonsOnlyItsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c := &Client{BaseURL: ts.URL, Retries: -1}

	if _, err := c.Run(context.Background(), Request{Scenario: "simd_test_panic"}); err == nil {
		t.Fatal("panicking job reported success")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic not surfaced in the error: %v", err)
	}
	// The server survives and the next job runs normally.
	res, err := (&Client{BaseURL: ts.URL}).Run(context.Background(), Request{Scenario: "simd_test_fast"})
	if err != nil {
		t.Fatalf("job after panic: %v", err)
	}
	if !bytes.Equal(res.Metrics, localBytes(t, "simd_test_fast")) {
		t.Error("job after panic produced divergent bytes")
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", st.Panics)
	}
}

func TestAdmissionRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobInstances: 100})
	cases := []struct {
		name string
		req  Request
		code int
	}{
		{"unknown scenario", Request{Scenario: "no_such_scenario"}, 400},
		{"unknown machine", Request{Scenario: "simd_test_fast", Machine: "no_such_machine"}, 400},
		{"machine and spec", Request{Scenario: "simd_test_fast", Machine: "haswell",
			Spec: json.RawMessage(`{"version":1}`)}, 400},
		{"over instance budget", Request{Scenario: "simd_test_slow"}, 413},
		{"placement without numa", Request{Scenario: "simd_test_fast", Placement: "interleave"}, 400},
	}
	for _, tc := range cases {
		resp := submitRaw(t, ts.URL, tc.req, true)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: got %s, want %d", tc.name, resp.Status, tc.code)
		}
	}
}

func TestDrainCheckpointsAndRestartResumesByteExact(t *testing.T) {
	state, cacheDir := t.TempDir(), t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: cacheDir, StateDir: state})
	want := localBytes(t, "simd_test_slow")
	key, err := sweep.Key(nil, "simd_test_slow", "", nil, false)
	if err != nil {
		t.Fatal(err)
	}

	// Async submit, then wait until the run is demonstrably in the middle
	// of its schedule (some instance boundaries crossed, many left).
	if resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_slow"}, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	waitFor(t, 5*time.Second, func() bool {
		f, ok := s.Lookup(key)
		return ok && f.status().Instances > 2
	})

	// Drain: the running job checkpoints at its next instance boundary;
	// new work is refused with 503.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_fast"}, false); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %s, want 503", resp.Status)
	}
	f, ok := s.Lookup(key)
	if !ok {
		t.Fatal("drained job forgotten")
	}
	if st := f.status(); st.State != StateCheckpointed {
		t.Fatalf("drained job state = %q, want %q", st.State, StateCheckpointed)
	}
	for _, p := range []string{key + ".job", key + ".ck"} {
		if _, err := os.Stat(filepath.Join(state, p)); err != nil {
			t.Fatalf("drain did not leave %s: %v", p, err)
		}
	}

	// A fresh server over the same directories resumes the parked job and
	// completes it byte-identically to an uninterrupted run.
	s2, err := New(Config{CacheDir: cacheDir, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	f2, ok := s2.Lookup(key)
	if !ok {
		t.Fatal("resumed job not found")
	}
	select {
	case <-f2.done:
	case <-time.After(30 * time.Second):
		t.Fatal("resumed job did not finish")
	}
	st, metrics, rerr := f2.result()
	if st != StateDone || rerr != nil {
		t.Fatalf("resumed job: state=%q err=%v", st, rerr)
	}
	if !bytes.Equal(metrics, want) {
		t.Fatal("resumed metrics differ from an uninterrupted run")
	}
	if !f2.status().Resumed {
		t.Error("resumed job not marked Resumed")
	}
	// The parked state is consumed, and the result landed in the shared
	// cache for the next requester.
	for _, p := range []string{key + ".job", key + ".ck"} {
		if _, err := os.Stat(filepath.Join(state, p)); !os.IsNotExist(err) {
			t.Errorf("%s not cleaned up after resume", p)
		}
	}
	if _, ok := cacheBytes(t, cacheDir, key, want); !ok {
		t.Error("resumed result not cached")
	}
	if s2.Stats().Resumed != 1 {
		t.Errorf("stats.Resumed = %d, want 1", s2.Stats().Resumed)
	}
}

// cacheBytes checks the on-disk cache entry for key equals want.
func cacheBytes(t *testing.T, dir, key string, want []byte) ([]byte, bool) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, false
	}
	return b, bytes.Equal(b, want)
}

func TestDrainParksQueuedJobs(t *testing.T) {
	state := t.TempDir()
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 4, StateDir: state})

	// One running, one queued (distinct keys).
	if resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_slow"}, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("running job: %s", resp.Status)
	}
	waitFor(t, time.Second, func() bool { return s.Stats().Running == 1 })
	qreq := Request{Scenario: "simd_test_slow", Sampling: samplingSeed(99)}
	if resp := submitRaw(t, ts.URL, qreq, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: %s", resp.Status)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	// Both jobs are parked: the queued one as a bare request, the running
	// one with its checkpoint.
	jobs, _ := filepath.Glob(filepath.Join(state, "*.job"))
	if len(jobs) != 2 {
		t.Fatalf("drain parked %d jobs, want 2 (%v)", len(jobs), jobs)
	}
	if st := s.Stats(); st.Parked != 2 {
		t.Errorf("stats.Parked = %d, want 2", st.Parked)
	}

	// Restart resumes both to completion with a clean state directory.
	s2, err := New(Config{MaxConcurrent: 2, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Resume(); err != nil || n != 2 {
		t.Fatalf("resume: n=%d err=%v, want 2", n, err)
	}
	for _, j := range jobs {
		key := strings.TrimSuffix(filepath.Base(j), ".job")
		f, ok := s2.Lookup(key)
		if !ok {
			t.Fatalf("job %s not resumed", key)
		}
		select {
		case <-f.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s did not finish after restart", key)
		}
		if st, _, err := f.result(); st != StateDone {
			t.Errorf("job %s: state=%q err=%v", key, st, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(state, "*"))
	if len(left) != 0 {
		t.Errorf("state directory not cleaned after resume: %v", left)
	}
}

// TestResumedJobClearsStateBeforeDone pins the order of a finished job's
// last two steps: its parked .job file is gone by the time done closes, so
// a waiter woken by done sees a clean state directory. A single resume
// would catch a wrong order only sometimes, so the test resumes many.
func TestResumedJobClearsStateBeforeDone(t *testing.T) {
	for i := 0; i < 200; i++ {
		state := t.TempDir()
		s, err := New(Config{StateDir: state})
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.resolve(Request{Scenario: "simd_test_fast"})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.park(f); err != nil {
			t.Fatal(err)
		}

		s2, err := New(Config{StateDir: state})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := s2.Resume(); err != nil || n != 1 {
			t.Fatalf("resume: n=%d err=%v, want 1", n, err)
		}
		f2, ok := s2.Lookup(f.key)
		if !ok {
			t.Fatal("resumed job not found")
		}
		select {
		case <-f2.done:
		case <-time.After(30 * time.Second):
			t.Fatal("resumed job did not finish")
		}
		if _, err := os.Stat(s2.jobPath(f.key)); !os.IsNotExist(err) {
			t.Fatalf("resume %d: %s.job still present when done closed (stat err %v)", i, f.key, err)
		}
	}
}

// TestAdmitServesFlightFinishedAfterCacheMiss forces the admission race:
// a request's cache lookup misses, the key's running flight then finishes
// and stores its result, and only then is the request admitted. Admission
// must serve the stored result rather than simulate the key again.
func TestAdmitServesFlightFinishedAfterCacheMiss(t *testing.T) {
	want := localBytes(t, "simd_test_fast")
	s, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Scenario: "simd_test_fast"}
	// The late request, past its cache lookup but not yet admitted.
	late, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-first.done:
	case <-time.After(30 * time.Second):
		t.Fatal("first job did not finish")
	}

	got, coalesced, err := s.admit(late, false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-got.done:
	case <-time.After(30 * time.Second):
		t.Fatal("late job did not finish")
	}
	state, b, err := got.result()
	if state != StateDone || err != nil || !bytes.Equal(b, want) {
		t.Errorf("late job = %s (err %v, %d bytes), want done with the first job's bytes", state, err, len(b))
	}
	if coalesced {
		t.Error("a finished flight was reported as coalesced")
	}
	if st := s.Stats(); st.Accepted != 1 || st.Simulated != 1 || st.CacheHits != 1 {
		t.Errorf("accepted=%d simulated=%d cache_hits=%d, want 1/1/1 (no re-simulation)",
			st.Accepted, st.Simulated, st.CacheHits)
	}
}

func TestHealthAndStatsEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %s, want 200", resp.Status)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %s, want 503", resp.Status)
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "simd_draining", "simd_draining", ""); got != 1 {
		t.Errorf("simd_draining = %g while draining, want 1", got)
	}
}

func TestEventsStreamReachesTerminal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := submitRaw(t, ts.URL, Request{Scenario: "simd_test_fast"}, false)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	events, err := http.Get(ts.URL + "/v1/jobs/" + st.Key + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	body := make([]byte, 1<<16)
	var buf bytes.Buffer
	for {
		n, rerr := events.Body.Read(body)
		buf.Write(body[:n])
		if rerr != nil {
			break
		}
	}
	if !strings.Contains(buf.String(), `"state":"done"`) {
		t.Errorf("event stream never reported the terminal state:\n%s", buf.String())
	}
}

func TestClientRetryHonorsRetryAfterAndBackoff(t *testing.T) {
	// A scripted server: two sheds, then success. The client must make
	// exactly three attempts and return the final body.
	var attempts int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shed"}`)
			return
		}
		w.Header().Set("X-Simd-Key", "k")
		w.Header().Set("X-Simd-Source", SourceSimulated)
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Retries: 4, BaseDelay: time.Millisecond}
	start := time.Now()
	res, err := c.Run(context.Background(), Request{Scenario: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if string(res.Metrics) != `{"ok":true}` {
		t.Errorf("metrics = %q", res.Metrics)
	}
	// Two Retry-After: 1s hints must actually be honored.
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Errorf("client ignored Retry-After: finished in %s", elapsed)
	}
}

func TestClientDoesNotRetryHardRejections(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad request"}`)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, Retries: 4, BaseDelay: time.Millisecond}
	if _, err := c.Run(context.Background(), Request{}); err == nil {
		t.Fatal("client reported success on 400")
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (400 is not retryable)", attempts)
	}
}

func TestServerFaultPointsSurfaceCleanly(t *testing.T) {
	defer faultinject.Reset()
	cacheDir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: cacheDir})
	c := &Client{BaseURL: ts.URL, Retries: -1, BaseDelay: time.Millisecond}
	want := localBytes(t, "simd_test_fast")
	key, _ := sweep.Key(nil, "simd_test_fast", "", nil, false)

	// Admission and execution faults fail the request with a structured
	// error; a retry after the fault clears succeeds with exact bytes.
	for _, point := range []string{
		faultinject.PointServerAccept,
		faultinject.PointServerEnqueue,
		faultinject.PointServerRun,
	} {
		faultinject.Enable(point, 1, nil)
		if _, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"}); err == nil {
			t.Fatalf("point %s: request succeeded under injected fault", point)
		}
		faultinject.Reset()
		res, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"})
		if err != nil {
			t.Fatalf("point %s: retry after fault: %v", point, err)
		}
		if !bytes.Equal(res.Metrics, want) {
			t.Fatalf("point %s: retry produced divergent bytes", point)
		}
		// Leave a clean slate (the cached entry would mask the next
		// point's run path).
		os.Remove(filepath.Join(cacheDir, key+".json"))
	}

	// A cache-write fault must NOT fail the job: the result is correct,
	// only the next lookup loses its hit.
	faultinject.Enable(faultinject.PointServerCacheWrite, 1, nil)
	res, err := c.Run(context.Background(), Request{Scenario: "simd_test_fast"})
	faultinject.Reset()
	if err != nil {
		t.Fatalf("cache-write fault failed the job: %v", err)
	}
	if !bytes.Equal(res.Metrics, want) {
		t.Fatal("cache-write fault corrupted the response")
	}
	if _, err := os.Stat(filepath.Join(cacheDir, key+".json")); !os.IsNotExist(err) {
		t.Error("cache entry landed despite injected write fault")
	}
	_ = s
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}
