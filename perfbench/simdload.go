package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machspec"
	"repro/internal/scenario"
	"repro/internal/simd"
	"repro/internal/telemetry"
)

// simd_mixed shape: a pass serves requests that each miss (every golden
// scenario on every machine, simdCopies times, each with a fresh sampling
// seed) plus one repeat of an already-served key for every three fresh
// ones. Two closed-loop clients take requests in sequence order, so when
// request i starts every request up to i-2 has been answered; a repeat
// copies a request at least simdRepeatLag earlier and is a cache read.
// simdCopies sizes the pass so the slowest job is a small share of it.
const (
	simdClients    = 2
	simdConcurrent = 2
	simdCopies     = 2
	simdRepeatLag  = 3
)

var simdMachines = []string{"haswell", "small", "noprefetch", "inline " + haswell2s}

var simdMixedWorkload = workload{
	name: "simd_mixed",
	par:  simdClients,
	why:  "in-process simd server under 2 closed-loop clients; the only workload where admission, HTTP/JSON, hashing and the cache show",
	config: map[string]any{
		"server":     fmt.Sprintf("simd.Server, MaxConcurrent %d, fresh cache directory every pass, 127.0.0.1", simdConcurrent),
		"clients":    fmt.Sprintf("%d closed-loop simd.Client callers", simdClients),
		"requests":   fmt.Sprintf("every golden scenario x machine %d times, each with a fresh randomized sampling seed (misses), plus 1 repeat of an earlier key per 3 misses (cache reads), in seeded order", simdCopies),
		"machines":   simdMachines,
		"job":        "one served request",
		"local_diff": "one seeded request per pass re-run locally with scenario.Run and compared byte for byte",
	},
	prepare: func(e *env) (runner, error) {
		spec, err := os.ReadFile(filepath.Join(e.root, haswell2s))
		if err != nil {
			return nil, err
		}
		reqs := simdRequests(e.seed, goldenScenarios(), spec)
		return &simdRunner{env: e, reqs: reqs, rng: rand.New(rand.NewSource(e.seed)), bodies: map[string][]byte{}}, nil
	},
}

// goldenScenarios are the registered scenarios other than the benchmark's
// own sweep scenarios.
func goldenScenarios() []string {
	own := sweepScenarioNames()
	var out []string
	for _, sc := range scenario.All() {
		if !slices.Contains(own, sc.Name) {
			out = append(out, sc.Name)
		}
	}
	return out
}

// simdRequests derives a pass's request sequence from the seed.
func simdRequests(seed int64, scenarios []string, spec2s []byte) []simd.Request {
	rng := rand.New(rand.NewSource(seed))
	randomize := true
	var fresh []simd.Request
	for range simdCopies {
		for _, sc := range scenarios {
			for _, m := range simdMachines {
				s := rng.Int63()
				req := simd.Request{Scenario: sc, Sampling: &machspec.Sampling{Randomize: &randomize, Seed: &s}}
				if strings.HasPrefix(m, "inline ") {
					req.Spec = json.RawMessage(spec2s)
				} else {
					req.Machine = m
				}
				fresh = append(fresh, req)
			}
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	repeats := len(fresh) / 3
	n := len(fresh) + repeats
	// Repeat positions: a seeded choice among positions that have at least
	// simdRepeatLag requests before them.
	isRepeat := make([]bool, n)
	for _, i := range rng.Perm(n - simdRepeatLag)[:repeats] {
		isRepeat[i+simdRepeatLag] = true
	}
	out := make([]simd.Request, 0, n)
	for i := 0; i < n; i++ {
		if isRepeat[i] {
			out = append(out, out[rng.Intn(i-simdRepeatLag+1)])
			continue
		}
		out = append(out, fresh[0])
		fresh = fresh[1:]
	}
	return out
}

// simdRunner keeps, across passes, the first body served for each key:
// every later body for the key must equal it byte for byte.
type simdRunner struct {
	env    *env
	reqs   []simd.Request
	rng    *rand.Rand
	bodies map[string][]byte
}

// served is one request's outcome.
type served struct {
	res     *simd.RunResult
	err     error
	latency time.Duration
	spanID  uint64
}

type simdPass struct {
	runner    *simdRunner
	tr        *tracer
	dir       string
	server    *simd.Server
	http      *http.Server
	transport *http.Transport
	url       string
	serveErr  chan error
	results   []served
	retries   atomic.Int64
}

const (
	hdrSpan  = "X-Perfbench-Span"
	hdrGroup = "X-Perfbench-Group"
)

func (r *simdRunner) setup(sc scope, dir string) (pass, error) {
	p := &simdPass{runner: r, tr: sc.tr, dir: dir, serveErr: make(chan error, 1)}
	err := sc.timed("simd.start", func() error {
		var err error
		if p.server, err = simd.New(simd.Config{MaxConcurrent: simdConcurrent, CacheDir: p.dir}); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		handler := p.server.Handler()
		if p.tr != nil {
			handler = traceHandler(p.tr, handler)
		}
		p.http = &http.Server{Handler: handler}
		go func() { p.serveErr <- p.http.Serve(ln) }()
		p.url = "http://" + ln.Addr().String()
		p.transport = &http.Transport{MaxIdleConnsPerHost: simdClients}
		return nil
	})
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// traceHandler records a simd.handler span around every request, parented
// to the client span named in the request headers.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		group, _ := strconv.ParseUint(r.Header.Get(hdrGroup), 10, 64)
		o := tr.start("simd.handler", parent, group)
		next.ServeHTTP(w, r)
		o.end()
	})
}

// spanIDs carries a client span's id and group to the transport.
type spanIDs struct{ span, group uint64 }

type spanIDsKey struct{}

// spanTransport copies the client span's ids into the request headers.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ids, ok := r.Context().Value(spanIDsKey{}).(spanIDs); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrSpan, strconv.FormatUint(ids.span, 10))
		r.Header.Set(hdrGroup, strconv.FormatUint(ids.group, 10))
	}
	return t.base.RoundTrip(r)
}

func (p *simdPass) run(sc scope) error {
	var rt http.RoundTripper = p.transport
	if p.tr != nil {
		rt = spanTransport{base: p.transport}
	}
	client := &simd.Client{
		BaseURL: p.url,
		HTTP:    &http.Client{Transport: rt},
		Log:     func(string, ...any) { p.retries.Add(1) },
	}
	reqs := p.runner.reqs
	p.results = make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < simdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				group := sc.group<<32 | uint64(i+1)
				o := p.tr.start("simd.client", sc.parent, group)
				ctx := context.Background()
				if o != nil {
					ctx = context.WithValue(ctx, spanIDsKey{}, spanIDs{span: o.id(), group: group})
				}
				t0 := time.Now()
				res, err := client.Run(ctx, reqs[i])
				p.results[i] = served{res: res, err: err, latency: time.Since(t0), spanID: o.id()}
				o.end()
			}
		}()
	}
	wg.Wait()
	return nil
}

func (p *simdPass) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if p.http != nil {
		_ = p.http.Shutdown(ctx) // a failed shutdown only leaves loopback sockets to the exit
		if err := <-p.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: simd serve: %v\n", err)
		}
	}
	if p.server != nil {
		_ = p.server.Drain(ctx) // idle after the pass: nothing to park
	}
	if p.transport != nil {
		p.transport.CloseIdleConnections()
	}
}

func (p *simdPass) finish() outcome {
	r := p.runner
	out := outcome{attempted: len(p.results) + 1, layer: map[string]float64{}}
	var counts layerCounts
	var hit, miss, latency []time.Duration
	hits := 0
	for i, s := range p.results {
		out.jobs = append(out.jobs, s.latency)
		req := r.reqs[i]
		if s.err != nil {
			out.fail("request %d (%s): %v", i, req.Scenario, s.err)
			continue
		}
		latency = append(latency, s.latency)
		first, seen := r.bodies[s.res.Key]
		if !seen {
			r.bodies[s.res.Key] = s.res.Metrics
		} else if !bytes.Equal(first, s.res.Metrics) {
			out.fail("request %d (%s): body differs from the first served for key %s", i, req.Scenario, s.res.Key)
			continue
		}
		switch s.res.Source {
		case simd.SourceCache:
			hits++
			hit = append(hit, s.latency)
		case simd.SourceSimulated:
			miss = append(miss, s.latency)
			var m scenario.Metrics
			if err := json.Unmarshal(s.res.Metrics, &m); err != nil {
				out.fail("request %d (%s): %v", i, req.Scenario, err)
				continue
			}
			counts.add(metricsCounts(&m))
		}
	}
	// One seeded request per pass must equal a local run of the same job.
	if i := r.rng.Intn(len(r.reqs)); p.results[i].err == nil {
		if err := localMatches(r.reqs[i], p.results[i].res.Metrics); err != nil {
			out.fail("local re-run of request %d (%s): %v", i, r.reqs[i].Scenario, err)
		}
	}
	if p.tr == nil {
		return out
	}
	counts.set(out.layer)
	fams, err := scrape(p.server)
	if err != nil {
		out.fail("scrape /metrics: %v", err)
		return out
	}
	runSum, runCount := histogram(fams, "simd_run_seconds")
	waitSum, waitCount := histogram(fams, "simd_queue_wait_seconds")
	out.layer["simd.run_ms"] = 1e3 * ratio(runSum, runCount)
	out.layer["simd.queue_wait_ms"] = 1e3 * ratio(waitSum, waitCount)
	out.layer["simd.coalesced"] = counter(fams, "simd_jobs_coalesced_total", "")
	out.layer["simd.shed"] = counter(fams, "simd_shed_total", `code="429"`) + counter(fams, "simd_shed_total", `code="503"`)
	out.layer["core.simulate_s"] = runSum
	out.layer["core.sim_mips"] = ratio(float64(counts.instructions)/1e6, runSum)
	out.layer["simd.cache_hit_ratio"] = ratio(float64(hits), float64(len(p.results)))
	out.layer["client.retries"] = float64(p.retries.Load())
	out.layer["simd.hit_latency_p50_ms"] = median(millis(hit))
	out.layer["simd.miss_latency_p50_ms"] = median(millis(miss))

	handlers := map[uint64][]time.Duration{}
	var handlerAll []time.Duration
	for _, s := range p.tr.snapshot() {
		if s.Name == "simd.handler" {
			handlers[s.Parent] = append(handlers[s.Parent], s.dur())
			handlerAll = append(handlerAll, s.dur())
		}
	}
	var roundTrip, handler []time.Duration
	for _, s := range p.results {
		if h := handlers[s.spanID]; s.err == nil && len(h) == 1 {
			roundTrip = append(roundTrip, s.latency)
			handler = append(handler, h[0])
		}
	}
	out.layer["simd.handler_ms_p50"] = median(millis(handlerAll))
	out.layer["simd.transport_ms_p50"] = median(millis(transportTimes(roundTrip, handler)))
	return out
}

// localMatches runs the request's job in-process and compares the canonical
// bytes with the served body.
func localMatches(req simd.Request, body []byte) error {
	sc, ok := scenario.Get(req.Scenario)
	if !ok {
		return fmt.Errorf("unknown scenario")
	}
	var spec *machspec.Spec
	var err error
	if len(req.Spec) > 0 {
		spec, err = machspec.Decode(bytes.NewReader(req.Spec))
	} else {
		spec, err = machspec.Named(req.Machine)
	}
	if err != nil {
		return err
	}
	m, err := scenario.Run(sc, scenario.Options{Machine: spec, Placement: req.Placement, Sampling: req.Sampling})
	if err != nil {
		return err
	}
	want, err := m.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("served %d bytes differ from the local run's %d", len(body), len(want))
	}
	return nil
}

// scrape reads the server's /metrics exposition through the strict parser.
func scrape(s *simd.Server) ([]telemetry.Family, error) {
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return telemetry.ParseText(&buf)
}

func findFamily(fams []telemetry.Family, name string) (telemetry.Family, bool) {
	for _, f := range fams {
		if f.Name == name {
			return f, true
		}
	}
	return telemetry.Family{}, false
}

// histogram returns an unlabelled histogram's sum and count.
func histogram(fams []telemetry.Family, name string) (sum, count float64) {
	f, ok := findFamily(fams, name)
	if !ok {
		return 0, 0
	}
	if s, ok := f.Sample(name+"_sum", ""); ok {
		sum = s.Value
	}
	if s, ok := f.Sample(name+"_count", ""); ok {
		count = s.Value
	}
	return sum, count
}

// counter returns one series of a counter family (labels: the exact label
// block, "" for none).
func counter(fams []telemetry.Family, name, labels string) float64 {
	f, ok := findFamily(fams, name)
	if !ok {
		return 0
	}
	if s, ok := f.Sample(name, labels); ok {
		return s.Value
	}
	return 0
}
