package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// tornEntry plants a cache entry through a torn-write faultinject.Writer —
// the half-written file a non-atomic producer (or a truncating crash)
// leaves behind. It bypasses atomicio on purpose: the point of the test is
// that the *reader* survives a tear the writer discipline did not prevent.
func tornEntry(t *testing.T, c *Cache, key string, full []byte) string {
	t.Helper()
	defer faultinject.Reset()
	path := filepath.Join(c.dir, key+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const point = "test.cache.torn"
	faultinject.Enable(point, 1, nil)
	if _, err := faultinject.Writer(f, point).Write(full); err == nil {
		t.Fatal("torn writer did not fail")
	}
	return path
}

func TestCacheEvictsTornEntry(t *testing.T) {
	// A full valid entry for one key, a torn copy of the same bytes for
	// another: the valid one is served, the torn one is evicted with a
	// notice and reported as a miss.
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var notices []string
	c.Notice = func(key string, err error) {
		notices = append(notices, fmt.Sprintf("%s: %v", key[:8], err))
	}
	full := []byte(`{"scenario": "stream_triad_1t", "per_thread": [{"cycles": 12345}]}` + "\n")
	goodKey := strings.Repeat("a", 64)
	tornKey := strings.Repeat("b", 64)
	if err := c.Put(goodKey, full); err != nil {
		t.Fatal(err)
	}
	path := tornEntry(t, c, tornKey, full)

	if b, ok, err := c.Get(goodKey); err != nil || !ok || !bytes.Equal(b, full) {
		t.Fatalf("good entry: ok=%t err=%v", ok, err)
	}
	b, ok, err := c.Get(tornKey)
	if err != nil {
		t.Fatalf("torn entry must be a miss, not an error: %v", err)
	}
	if ok || b != nil {
		t.Fatalf("torn entry served as a hit (%d bytes)", len(b))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("torn entry not evicted from disk: %v", err)
	}
	if len(notices) != 1 {
		t.Errorf("notices=%v, want exactly one eviction notice", notices)
	}
	if !strings.Contains(notices[0], "truncated") && !strings.Contains(notices[0], "corrupt") {
		t.Errorf("notice does not name the corruption: %q", notices[0])
	}

	// An empty entry (open() succeeded, write never happened) is evicted
	// the same way.
	emptyKey := strings.Repeat("c", 64)
	if err := os.WriteFile(filepath.Join(c.dir, emptyKey+".json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(emptyKey); err != nil || ok {
		t.Fatalf("empty entry: ok=%t err=%v, want miss", ok, err)
	}

	// After eviction the slot is writable again and serves the new bytes.
	if err := c.Put(tornKey, full); err != nil {
		t.Fatal(err)
	}
	if b, ok, _ := c.Get(tornKey); !ok || !bytes.Equal(b, full) {
		t.Fatal("re-written entry not served after eviction")
	}
}

// TestCacheTornWriteNeverLands pins the atomicio route on the write side: a
// torn write through Cache.Put leaves no entry at all (the temp file is
// discarded), so the next reader re-simulates instead of reading garbage.
func TestCacheTornWriteNeverLands(t *testing.T) {
	defer faultinject.Reset()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("d", 64)
	faultinject.Enable(faultinject.PointWrite, 1, nil)
	if err := c.Put(key, []byte(`{"scenario":"x"}`)); err == nil {
		t.Fatal("torn Put reported success")
	}
	faultinject.Reset()
	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("torn Put left an entry: ok=%t err=%v", ok, err)
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("torn Put left %d files (temp litter?)", len(entries))
	}
}

// TestCacheConcurrentSharedDir drives two Cache handles (standing in for
// two sweep/server processes) over one directory from many goroutines:
// concurrent Puts of the same keys and interleaved Gets must only ever
// observe complete entries — rename is atomic, so a reader sees the old
// bytes or the new bytes, never a tear — and must never error. Run under
// -race this also pins the handle itself as goroutine-safe.
func TestCacheConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Notice = func(key string, err error) { t.Errorf("cache a evicted %s: %v", key[:8], err) }
	b.Notice = func(key string, err error) { t.Errorf("cache b evicted %s: %v", key[:8], err) }

	const keys = 4
	const rounds = 50
	payload := func(k int) []byte {
		// Large enough that a torn write would be observable mid-document.
		return []byte(fmt.Sprintf(`{"scenario": "k%d", "filler": %q}`+"\n", k, strings.Repeat("x", 4096)))
	}
	keyOf := func(k int) string { return strings.Repeat(fmt.Sprintf("%x", k&0xf), 64) }

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		c := a
		if w%2 == 1 {
			c = b
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				if w%2 == 0 {
					if err := c.Put(keyOf(k), payload(k)); err != nil {
						errs <- fmt.Errorf("put: %w", err)
						return
					}
				}
				got, ok, err := c.Get(keyOf(k))
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if ok && !bytes.Equal(got, payload(k)) {
					errs <- fmt.Errorf("key %d: read %d bytes that are not the full entry", k, len(got))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunnerCancellation pins the signal discipline of the sweep engine:
// cancelling the context mid-matrix stops the pool cleanly, the completed
// points keep their results and cache entries, and the interrupted points
// are reported as cancelled — not as errors.
func TestRunnerCancellation(t *testing.T) {
	f := &File{
		Version:   1,
		Machines:  []string{"haswell", "small"},
		Scenarios: []string{"stream_triad_1t", "random_access_1t"},
	}
	points, err := f.Expand(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	completed := 0
	r := &Runner{
		Jobs:    1,
		Cache:   cache,
		Context: ctx,
		Log: func(format string, args ...any) {
			// One log line per finished point; cancel after the first so
			// the remaining points observe a dead context.
			completed++
			if completed == 1 {
				cancel()
			}
		},
	}
	results, sum, err := r.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cancelled == 0 {
		t.Fatalf("summary = %s, want cancelled points", sum)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary = %s: cancellation must not count as errors", sum)
	}
	if sum.Finished() == 0 {
		t.Fatalf("summary = %s, want at least the first point finished", sum)
	}
	kept := 0
	for _, res := range results {
		switch res.Source {
		case SourceSimulated:
			// Completed points keep their cache entries.
			if b, ok, err := cache.Get(res.Point.Key); err != nil || !ok || !bytes.Equal(b, res.Metrics) {
				t.Errorf("completed point %s lost its cache entry (ok=%t err=%v)", res.Point.Label(), ok, err)
			}
			kept++
		case SourceCancelled:
			if res.Metrics != nil {
				t.Errorf("cancelled point %s carries metrics bytes", res.Point.Label())
			}
			if _, ok, _ := cache.Get(res.Point.Key); ok {
				t.Errorf("cancelled point %s was cached", res.Point.Label())
			}
		}
	}
	if kept == 0 {
		t.Error("no completed point retained a cache entry")
	}
}
