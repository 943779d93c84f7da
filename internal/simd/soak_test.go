package simd

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// TestConcurrentSoak is the package's -race stress run: many clients, a
// small key space (so coalescing and cache hits actually happen), transient
// injected faults at the server's execution point, and a retrying client.
// The invariants it pins:
//
//   - no lost jobs: every request eventually succeeds;
//   - byte-identity: every response equals the local in-process run;
//   - exactly-once: each distinct key is simulated at most once per fault
//     window — duplicates coalesce or hit the cache, never re-simulate.
func TestConcurrentSoak(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 4,
		MaxQueued:     64,
		CacheDir:      t.TempDir(),
	})

	// Four distinct keys over the fast scenario (seed-only sampling
	// variations), with the local reference bytes computed up front.
	const distinctKeys = 4
	want := make(map[int][]byte, distinctKeys)
	for k := 0; k < distinctKeys; k++ {
		b, err := runScenario(t, "simd_test_fast", scenario.Options{Sampling: samplingSeed(int64(k))}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		want[k] = b
	}

	// A transient execution fault: the run point fails every job for a
	// short window, then clears. One non-retrying probe proves the fault
	// surfaces as a structured failure (and guarantees the window was
	// observed); the soak clients then retry straight through it.
	faultinject.Enable(faultinject.PointServerRun, 1, nil)
	probe := &Client{BaseURL: ts.URL, Retries: -1}
	if _, err := probe.Run(context.Background(), Request{Scenario: "simd_test_fast", Sampling: samplingSeed(0)}); err == nil {
		t.Fatal("probe succeeded under an armed run fault")
	}
	stopFault := time.AfterFunc(50*time.Millisecond, faultinject.Reset)
	defer stopFault.Stop()

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL, Retries: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
			for r := 0; r < rounds; r++ {
				k := (w + r) % distinctKeys
				res, err := c.Run(context.Background(), Request{
					Scenario: "simd_test_fast",
					Sampling: samplingSeed(int64(k)),
				})
				if err != nil {
					t.Errorf("client %d round %d: lost job: %v", w, r, err)
					return
				}
				if !bytes.Equal(res.Metrics, want[k]) {
					t.Errorf("client %d round %d: divergent bytes for key %d", w, r, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Exactly-once per key per fault window: each of the 4 keys simulates
	// once after the fault clears, plus at most the runs the injected fault
	// killed before landing a result (those never produced bytes, so they
	// cannot double-count as results). Successful simulations are bounded
	// by the key count.
	st := s.Stats()
	if st.Simulated > distinctKeys {
		t.Errorf("stats.Simulated = %d, want <= %d (coalescing + cache must dedupe)", st.Simulated, distinctKeys)
	}
	if st.Simulated == 0 {
		t.Error("stats.Simulated = 0: nothing ran")
	}
	if st.Coalesced+st.CacheHits == 0 {
		t.Error("no coalescing or cache hits in a duplicate-heavy soak")
	}
	if st.Failed == 0 {
		t.Error("injected run fault never fired (fault window too short?)")
	}
}

// TestSoakDrainMidLoad drains the server while clients are mid-flight:
// in-flight checkpointable jobs park, late submissions are refused with a
// retryable 503, and a restarted server finishes every parked job to the
// exact bytes an uninterrupted run produces.
func TestSoakDrainMidLoad(t *testing.T) {
	state, cacheDir := t.TempDir(), t.TempDir()
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 2,
		MaxQueued:     16,
		CacheDir:      cacheDir,
		StateDir:      state,
	})
	want := localBytes(t, "simd_test_slow")

	// Two distinct slow jobs: one runs, one queues.
	keys := make([]string, 2)
	for i := range keys {
		req := Request{Scenario: "simd_test_slow"}
		var err error
		var sp = samplingSeed(int64(i))
		if i > 0 {
			req.Sampling = sp
		}
		if i == 0 {
			keys[i], err = sweep.Key(nil, "simd_test_slow", "", nil, false)
		} else {
			keys[i], err = sweep.Key(nil, "simd_test_slow", "", sp, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp := submitRaw(t, ts.URL, req, false); resp.StatusCode != 202 {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		f, ok := s.Lookup(keys[0])
		return ok && f.status().Instances > 2
	})

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	// Every admitted job reached a safe state: done or parked, never lost.
	for _, key := range keys {
		f, ok := s.Lookup(key)
		if !ok {
			t.Fatalf("job %s lost by drain", key[:12])
		}
		if st, _, _ := f.result(); st != StateDone && st != StateCheckpointed {
			t.Fatalf("job %s drained into %q", key[:12], st)
		}
	}

	// Restart and resume; both jobs complete byte-exactly. The second job
	// may have been parked without a checkpoint (it was still queued) — it
	// re-runs from scratch, which must yield the same bytes anyway.
	s2, err := New(Config{MaxConcurrent: 2, CacheDir: cacheDir, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Resume(); err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		f, ok := s2.Lookup(key)
		if !ok {
			t.Fatalf("job %s not found after restart", key[:12])
		}
		select {
		case <-f.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s did not finish after restart", key[:12])
		}
		st, metrics, rerr := f.result()
		if st != StateDone {
			t.Fatalf("job %s after restart: state=%q err=%v", key[:12], st, rerr)
		}
		if i == 0 && !bytes.Equal(metrics, want) {
			t.Error("resumed job bytes differ from an uninterrupted run")
		}
	}
}
