package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/simd"
)

// syncWriter serializes the server's stdout so the test can poll it while
// run() is still writing.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var addrPattern = regexp.MustCompile(`listening on (http://[^\s]+)`)

// startServer launches run() on a free port and returns its base URL, the
// fake signal channel and the exit channel.
func startServer(t *testing.T, args []string) (string, chan os.Signal, chan error, *syncWriter) {
	t.Helper()
	out := &syncWriter{}
	signals := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), out, signals)
	}()
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrPattern.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before listening: %v\n%s", err, out.String())
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("server never printed its address:\n%s", out.String())
	}
	return base, signals, done, out
}

func TestServeSubmitAndSigtermDrain(t *testing.T) {
	cacheDir := t.TempDir()
	base, signals, done, out := startServer(t, []string{"-cache", cacheDir})

	c := &simd.Client{BaseURL: base}
	res, err := c.Run(context.Background(), simd.Request{Scenario: "stream_triad_1t"})
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := scenario.Get("stream_triad_1t")
	if !ok {
		t.Fatal("stream_triad_1t not registered")
	}
	m, err := scenario.Run(sc, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Metrics, want) {
		t.Fatal("served metrics differ from the local run")
	}

	// Second submit: a cache hit, no second simulation.
	res2, err := c.Run(context.Background(), simd.Request{Scenario: "stream_triad_1t"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != simd.SourceCache {
		t.Errorf("second submit source = %q, want %q", res2.Source, simd.SourceCache)
	}

	signals <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "drained:") {
		t.Errorf("drain not reported:\n%s", s)
	}
}

func TestSigtermCheckpointsAndRestartResumes(t *testing.T) {
	cacheDir, stateDir := t.TempDir(), t.TempDir()
	args := []string{"-cache", cacheDir, "-state", stateDir, "-drain-timeout", "10s"}
	base, signals, done, _ := startServer(t, args)

	// A long job: every builtin workload scenario checkpoints, and matmul_2t
	// is the slowest in the registry — enough schedule left that the drain
	// lands mid-run.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"scenario": "matmul_2t"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	// Give the run a moment to pass its first instance boundary, then
	// SIGTERM mid-run.
	time.Sleep(50 * time.Millisecond)
	signals <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}

	finished := false
	if jobs, _ := filepath.Glob(filepath.Join(stateDir, "*.job")); len(jobs) == 0 {
		// The run beat the signal; the result must then already be cached —
		// either way no work is lost.
		finished = true
	}

	// Restart over the same directories: the parked job resumes and its
	// result matches an uninterrupted local run byte for byte.
	base2, signals2, done2, out2 := startServer(t, args)
	if !finished {
		if !strings.Contains(out2.String(), "resumed 1") {
			t.Fatalf("restart did not resume the parked job:\n%s", out2.String())
		}
	}
	c := &simd.Client{BaseURL: base2}
	res, err := c.Run(context.Background(), simd.Request{Scenario: "matmul_2t"})
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := scenario.Get("matmul_2t")
	if !ok {
		t.Fatal("matmul_2t not registered")
	}
	m, err := scenario.Run(sc, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Metrics, want) {
		t.Fatal("resumed metrics differ from an uninterrupted run")
	}

	signals2 <- syscall.SIGTERM
	select {
	case <-done2:
	case <-time.After(10 * time.Second):
		t.Fatal("second server did not exit")
	}
}
