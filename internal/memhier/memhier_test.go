package memhier

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny returns a small two-level hierarchy convenient for eviction tests:
// L1 = 4 sets x 2 ways x 64B = 512B, L2 = 8 sets x 2 ways x 64B = 1KiB.
func tiny(t *testing.T, prefetch bool) *Hierarchy {
	t.Helper()
	h, err := New(Config{
		Levels: []LevelConfig{
			{Name: "L1D", Size: 512, LineSize: 64, Assoc: 2, HitLatency: 4},
			{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 12},
		},
		DRAMLatency:      100,
		NextLinePrefetch: prefetch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestDataSourceString(t *testing.T) {
	want := map[DataSource]string{SrcL1: "L1", SrcL2: "L2", SrcL3: "L3", SrcDRAM: "DRAM"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if DataSource(9).String() != "DataSource(9)" {
		t.Errorf("unknown source string = %q", DataSource(9).String())
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	if _, err := New(base); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{},                    // no levels
		{Levels: base.Levels}, // DRAMLatency 0
		func() Config {
			c := base
			// 4 cache levels: DataSource/PMU encode only L1..L3 + DRAM.
			c.Levels = []LevelConfig{
				{Name: "a", Size: 512, LineSize: 64, Assoc: 2, HitLatency: 1},
				{Name: "b", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 2},
				{Name: "c", Size: 2048, LineSize: 64, Assoc: 2, HitLatency: 3},
				{Name: "d", Size: 4096, LineSize: 64, Assoc: 2, HitLatency: 4},
			}
			return c
		}(), // too many levels
		func() Config {
			c := base
			c.Levels = []LevelConfig{{Name: "x", Size: 100, LineSize: 64, Assoc: 2, HitLatency: 1}}
			return c
		}(), // size not divisible
		func() Config {
			c := base
			c.Levels = []LevelConfig{{Name: "x", Size: 512, LineSize: 48, Assoc: 2, HitLatency: 1}}
			return c
		}(), // line not pow2
		func() Config {
			c := base
			c.Levels = []LevelConfig{
				{Name: "a", Size: 512, LineSize: 64, Assoc: 2, HitLatency: 10},
				{Name: "b", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 5}, // not increasing
			}
			return c
		}(),
		func() Config {
			c := base
			c.Levels = []LevelConfig{
				{Name: "a", Size: 512, LineSize: 64, Assoc: 2, HitLatency: 4},
				{Name: "b", Size: 1024, LineSize: 128, Assoc: 2, HitLatency: 12}, // line mismatch
			}
			return c
		}(),
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny(t, false)
	r1 := h.Access(0x1000, 8, false)
	if r1.Source != SrcDRAM || r1.Latency != 100 {
		t.Errorf("cold access = %+v, want DRAM/100", r1)
	}
	r2 := h.Access(0x1000, 8, false)
	if r2.Source != SrcL1 || r2.Latency != 4 {
		t.Errorf("second access = %+v, want L1/4", r2)
	}
	// Same line, different offset: still L1.
	r3 := h.Access(0x1038, 8, false)
	if r3.Source != SrcL1 {
		t.Errorf("same-line access = %+v, want L1", r3)
	}
	if h.DRAMAccesses() != 1 {
		t.Errorf("DRAM accesses = %d, want 1", h.DRAMAccesses())
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := tiny(t, false)
	// L1 has 4 sets; addresses 64*4*k map to set 0. Fill set 0 beyond assoc.
	const stride = 64 * 4
	h.Access(0*stride, 8, false)
	h.Access(1*stride, 8, false)
	h.Access(2*stride, 8, false) // evicts line 0 from L1 (2-way)
	if h.Contains(0, 0) {
		t.Fatal("line 0 should be evicted from L1")
	}
	// L2 has 8 sets: lines 0,4,8 map to L2 sets 0,4,0 → lines 0 and 2*stride
	// share L2 set 0 but it is 2-way, so line 0 should still be in L2.
	r := h.Access(0, 8, false)
	if r.Source != SrcL2 {
		t.Errorf("re-access = %v, want L2", r.Source)
	}
	// And it must be refilled into L1 (inclusive fill).
	if !h.Contains(0, 0) {
		t.Error("L2 hit did not refill L1")
	}
}

func TestLRUOrder(t *testing.T) {
	h := tiny(t, false)
	const stride = 64 * 4 // same L1 set
	h.Access(0*stride, 8, false)
	h.Access(1*stride, 8, false)
	h.Access(0*stride, 8, false) // refresh line 0; line 1 is now LRU
	h.Access(2*stride, 8, false) // must evict line 1
	if !h.Contains(0, 0*stride) {
		t.Error("MRU line evicted instead of LRU")
	}
	if h.Contains(0, 1*stride) {
		t.Error("LRU line not evicted")
	}
}

func TestWritebackCounting(t *testing.T) {
	h := tiny(t, false)
	const stride = 64 * 4
	h.Access(0*stride, 8, true) // dirty line in L1
	h.Access(1*stride, 8, false)
	h.Access(2*stride, 8, false) // evicts dirty line 0
	if wb := h.LevelStats(0).Writebacks; wb != 1 {
		t.Errorf("L1 writebacks = %d, want 1", wb)
	}
	// A clean eviction must not count.
	h2 := tiny(t, false)
	h2.Access(0*stride, 8, false)
	h2.Access(1*stride, 8, false)
	h2.Access(2*stride, 8, false)
	if wb := h2.LevelStats(0).Writebacks; wb != 0 {
		t.Errorf("clean eviction counted as writeback: %d", wb)
	}
}

func TestPrefetchNextLine(t *testing.T) {
	h := tiny(t, true)
	h.Access(0x0, 8, false) // DRAM miss; prefetches line 0x40 into L2
	if h.LevelStats(1).Prefetches == 0 {
		t.Fatal("no prefetch issued on DRAM miss")
	}
	r := h.Access(0x40, 8, false)
	if r.Source != SrcL2 {
		t.Errorf("prefetched line served from %v, want L2", r.Source)
	}
	if !r.Prefetched {
		t.Error("result did not flag prefetched line")
	}
	if h.LevelStats(1).PrefHits != 1 {
		t.Errorf("PrefHits = %d, want 1", h.LevelStats(1).PrefHits)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	h := tiny(t, false)
	h.Access(0x0, 8, false)
	r := h.Access(0x40, 8, false)
	if r.Source != SrcDRAM {
		t.Errorf("with prefetch off, next line = %v, want DRAM", r.Source)
	}
}

func TestMissRatioSequentialVsRandom(t *testing.T) {
	// Sequential sweeps must show far lower L1 miss ratios than random access
	// over a working set much larger than the caches. This is the property
	// the paper's bandwidth observations depend on.
	seq, _ := New(DefaultConfig())
	rnd, _ := New(DefaultConfig())
	const n = 1 << 20 // 8 MiB of doubles, larger than L3 slice
	for i := 0; i < n; i++ {
		seq.Access(uint64(i*8), 8, false)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		rnd.Access(uint64(rng.Intn(n))*8, 8, false)
	}
	seqMiss := seq.LevelStats(0).MissRatio()
	rndMiss := rnd.LevelStats(0).MissRatio()
	if seqMiss >= rndMiss {
		t.Errorf("sequential miss ratio %.3f not below random %.3f", seqMiss, rndMiss)
	}
	// Sequential 8-byte strides touch each 64B line 8 times: miss ratio ~1/8.
	if seqMiss > 0.15 {
		t.Errorf("sequential L1 miss ratio %.3f, want ~0.125", seqMiss)
	}
}

func TestStatsConsistency(t *testing.T) {
	h, _ := New(DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		h.Access(uint64(rng.Intn(1<<22)), 8, rng.Intn(4) == 0)
	}
	for i := 0; i < h.Levels(); i++ {
		s := h.LevelStats(i)
		if s.Hits+s.Misses != s.Accesses {
			t.Errorf("level %d: hits %d + misses %d != accesses %d", i, s.Hits, s.Misses, s.Accesses)
		}
	}
	// Every L1 miss probes L2.
	if h.LevelStats(0).Misses != h.LevelStats(1).Accesses {
		t.Errorf("L1 misses %d != L2 accesses %d",
			h.LevelStats(0).Misses, h.LevelStats(1).Accesses)
	}
	// Every L3 miss goes to DRAM.
	last := h.Levels() - 1
	if h.LevelStats(last).Misses != h.DRAMAccesses() {
		t.Errorf("LLC misses %d != DRAM accesses %d", h.LevelStats(last).Misses, h.DRAMAccesses())
	}
}

func TestWorkingSetFitsInLevel(t *testing.T) {
	// A working set that fits L2 but not L1 must eventually be served
	// entirely from L1/L2 with no DRAM traffic after warmup.
	h, _ := New(DefaultConfig())
	const ws = 128 << 10 // 128 KiB: fits 256 KiB L2, not 32 KiB L1
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			h.Access(a, 8, false)
		}
	}
	before := h.DRAMAccesses()
	for a := uint64(0); a < ws; a += 64 {
		r := h.Access(a, 8, false)
		if r.Source == SrcDRAM {
			t.Fatalf("warm working set went to DRAM at %#x", a)
		}
	}
	if h.DRAMAccesses() != before {
		t.Error("DRAM counter moved on warm passes")
	}
}

func TestPropertyHitAfterAccess(t *testing.T) {
	// Immediately re-accessing any address must hit L1 with the L1 latency.
	f := func(addrs []uint64) bool {
		h := tiny(nil2t(), false)
		for _, a := range addrs {
			a %= 1 << 30
			h.Access(a, 8, false)
			r := h.Access(a, 8, false)
			if r.Source != SrcL1 || r.Latency != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// nil2t builds the tiny hierarchy without a testing.T (for quick.Check fns).
func nil2t() *testing.T { return &testing.T{} }

func TestPropertyLatencyMatchesSource(t *testing.T) {
	h, _ := New(DefaultConfig())
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		r := h.Access(uint64(rng.Intn(1<<24)), 8, rng.Intn(3) == 0)
		var want uint64
		switch r.Source {
		case SrcL1:
			want = cfg.Levels[0].HitLatency
		case SrcL2:
			want = cfg.Levels[1].HitLatency
		case SrcL3:
			want = cfg.Levels[2].HitLatency
		case SrcDRAM:
			want = cfg.DRAMLatency
		}
		if r.Latency != want {
			t.Fatalf("source %v latency %d, want %d", r.Source, r.Latency, want)
		}
	}
}
