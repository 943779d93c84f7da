package extrae

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/memhier"
	"repro/internal/pebs"
	"repro/internal/prog"
	"repro/internal/trace"
)

// rig bundles a monitored synthetic program for tests.
type rig struct {
	core *cpu.Core
	bin  *prog.Binary
	as   *prog.AddressSpace
	mon  *Monitor
	fn   *prog.Function
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	h, err := memhier.New(memhier.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.New(cpu.DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	bin := prog.NewBinary()
	fn, err := bin.AddFunction("kernel", "kernel.c", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.NewAddressSpace(0x2adf00000000)
	mon, err := New(cfg, core, bin, as)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{core: core, bin: bin, as: as, mon: mon, fn: fn}
}

// sweep runs a simple load sweep over [base, base+bytes) at the given ip.
func (r *rig) sweep(ip, base, bytes uint64, store bool) {
	for a := base; a < base+bytes; a += 8 {
		if store {
			r.core.Store(ip, a, 8)
		} else {
			r.core.Load(ip, a, 8)
		}
	}
}

func noMux(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MuxQuantumNs = 0
	cfg.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.PEBS.Randomize = false
	cfg.PEBS.Period = 100
	cfg.PEBS.LatencyThreshold = 0
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), nil, nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
	cfg := DefaultConfig()
	cfg.PEBS.Period = 0
	h, _ := memhier.New(memhier.DefaultConfig())
	core, _ := cpu.New(cpu.DefaultConfig(), h)
	if _, err := New(cfg, core, prog.NewBinary(), prog.NewAddressSpace(0)); err == nil {
		t.Error("bad PEBS config accepted")
	}
}

func TestDisabledUntilStart(t *testing.T) {
	r := newRig(t, noMux(t))
	ip, _ := r.fn.IPForLine(10)
	r.sweep(ip, 0x1000, 64*1024, false)
	if len(r.mon.Records()) != 0 {
		t.Errorf("%d records before Start", len(r.mon.Records()))
	}
	if r.mon.enabled {
		t.Error("enabled before Start")
	}
	r.mon.Start()
	r.sweep(ip, 0x1000, 64*1024, false)
	r.mon.Stop()
	if len(r.mon.Records()) == 0 {
		t.Error("no records after Start")
	}
}

// TestStopStartPreservesCountdowns pins Stop/Start behaviour of the gated
// path against the per-op reference path: ops retired between the last
// hook and Stop have decremented the core's live gates, and that progress
// must survive a Stop/Start cycle (ops while stopped advance neither
// path). The two paths must emit identical traces across the restart.
func TestStopStartPreservesCountdowns(t *testing.T) {
	run := func(perOp bool) []trace.Record {
		cfg := noMux(t)
		cfg.PerOpObserve = perOp
		r := newRig(t, cfg)
		ip, _ := r.fn.IPForLine(10)
		reg := r.mon.RegisterRegion("k")
		r.mon.Start()
		r.mon.EnterRegion(reg)
		// 72 loads: partway into the 100-op period, so countdown progress
		// exists at Stop.
		r.sweep(ip, 0x1000, 72*8, false)
		r.mon.ExitRegion(reg)
		r.mon.Stop()
		// Unmonitored ops: must advance neither path's countdown.
		r.sweep(ip, 0x40000, 64*8, false)
		r.mon.Start()
		r.mon.EnterRegion(reg)
		r.sweep(ip, 0x80000, 512*8, false)
		r.mon.ExitRegion(reg)
		r.mon.Stop()
		return r.mon.Records()
	}
	ref, fast := run(true), run(false)
	if len(ref) != len(fast) {
		t.Fatalf("record counts diverge across restart: reference %d, gated %d", len(ref), len(fast))
	}
	for i := range ref {
		a, b := ref[i], fast[i]
		if a.TimeNs != b.TimeNs || a.Task != b.Task || a.Thread != b.Thread || len(a.Pairs) != len(b.Pairs) {
			t.Fatalf("record %d diverges: ref %+v, gated %+v", i, a, b)
		}
		for j := range a.Pairs {
			if a.Pairs[j] != b.Pairs[j] {
				t.Fatalf("record %d pair %d diverges: ref %+v, gated %+v", i, j, a.Pairs[j], b.Pairs[j])
			}
		}
	}
}

func TestAllocationTrackedBeforeStart(t *testing.T) {
	// Objects allocated during setup (before Start) must be resolvable
	// during the execution phase — the paper's HPCG data is allocated in
	// GenerateProblem, long before the analyzed phase.
	r := newRig(t, noMux(t))
	ipAlloc, _ := r.fn.IPForLine(12)
	r.mon.PushFrame(ipAlloc)
	addr, err := r.mon.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	r.mon.PopFrame()
	r.mon.Start()
	ip, _ := r.fn.IPForLine(15)
	r.sweep(ip, addr, 1<<20, false)
	r.mon.Stop()
	if rate := r.mon.Registry().ResolutionRate(); rate < 0.99 {
		t.Errorf("resolution rate = %g, want ~1 (object known from setup)", rate)
	}
	obj, ok := r.mon.Registry().Resolve(addr)
	if !ok {
		t.Fatal("object not resolvable")
	}
	if obj.Name != "12_kernel.c" {
		t.Errorf("object name = %q, want 12_kernel.c (allocation site)", obj.Name)
	}
}

func TestRegionEventsCarryCounters(t *testing.T) {
	r := newRig(t, noMux(t))
	reg := r.mon.RegisterRegion("ComputeSPMV_ref")
	r.mon.Start()
	ip, _ := r.fn.IPForLine(11)
	r.mon.EnterRegion(reg)
	r.sweep(ip, 0x1000, 32*1024, false)
	r.mon.ExitRegion(reg)
	r.mon.Stop()

	var enter, exit *trace.Record
	for i := range r.mon.Records() {
		rec := &r.mon.Records()[i]
		if v, ok := rec.Get(trace.TypeRegion); ok {
			if v == int64(reg) {
				enter = rec
			} else if v == 0 {
				exit = rec
			}
		}
	}
	if enter == nil || exit == nil {
		t.Fatal("missing region enter/exit records")
	}
	instT := trace.TypeCounterBase + uint32(cpu.CtrInstructions)
	i0, ok0 := enter.Get(instT)
	i1, ok1 := exit.Get(instT)
	if !ok0 || !ok1 {
		t.Fatal("region records missing instruction counter")
	}
	if i1-i0 != 32*1024/8 {
		t.Errorf("instructions in region = %d, want %d", i1-i0, 32*1024/8)
	}
	if r.mon.RegionName(reg) != "ComputeSPMV_ref" {
		t.Errorf("RegionName = %q", r.mon.RegionName(reg))
	}
	if r.mon.RegionName(Region(99)) != "region_99" {
		t.Error("unknown region name fallback")
	}
}

func TestUnbalancedExitPanics(t *testing.T) {
	r := newRig(t, noMux(t))
	reg := r.mon.RegisterRegion("a")
	defer func() {
		if recover() == nil {
			t.Error("unbalanced ExitRegion did not panic")
		}
	}()
	r.mon.ExitRegion(reg)
}

func TestSamplesResolveAndCarrySnapshots(t *testing.T) {
	r := newRig(t, noMux(t))
	ipAlloc, _ := r.fn.IPForLine(12)
	r.mon.PushFrame(ipAlloc)
	addr, _ := r.mon.Alloc(1 << 20)
	r.mon.PopFrame()
	r.mon.Start()
	ip, _ := r.fn.IPForLine(15)
	r.mon.PushFrame(ip)
	r.sweep(ip, addr, 1<<20, false)
	r.mon.PopFrame()
	r.mon.Stop()

	var nSamples int
	var lastInstr int64
	for _, rec := range r.mon.Records() {
		a, ok := rec.Get(trace.TypeSampleAddr)
		if !ok {
			continue
		}
		nSamples++
		if uint64(a) < addr || uint64(a) >= addr+1<<20 {
			t.Fatalf("sample address %#x outside object", a)
		}
		instr, ok := rec.Get(trace.TypeCounterBase + uint32(cpu.CtrInstructions))
		if !ok {
			t.Fatal("sample missing counter snapshot")
		}
		if instr < lastInstr {
			t.Fatal("counter snapshots not monotone across samples")
		}
		lastInstr = instr
		if ipGot, _ := rec.Get(trace.TypeSampleIP); uint64(ipGot) != ip {
			t.Fatalf("sample IP = %#x, want %#x", ipGot, ip)
		}
		if st, _ := rec.Get(trace.TypeSampleStack); st == 0 {
			t.Fatal("sample stack id is 0 despite pushed frame")
		}
	}
	// 1 MiB / 8 B = 131072 loads at period 100 → ~1310 samples.
	if nSamples < 1000 || nSamples > 1700 {
		t.Errorf("samples = %d, want ~1310", nSamples)
	}
}

func TestMultiplexingAlternates(t *testing.T) {
	cfg := noMux(t)
	cfg.MuxQuantumNs = 10_000 // 10 µs quanta
	r := newRig(t, cfg)
	addr, _ := r.mon.Alloc(4 << 20)
	r.mon.Start()
	ip, _ := r.fn.IPForLine(10)
	// Alternate load and store sweeps long enough to cross many quanta.
	for pass := 0; pass < 4; pass++ {
		r.sweep(ip, addr, 2<<20, pass%2 == 1)
	}
	r.mon.Stop()
	var loads, stores int
	for _, rec := range r.mon.Records() {
		if v, ok := rec.Get(trace.TypeSampleStore); ok {
			if v == 1 {
				stores++
			} else {
				loads++
			}
		}
	}
	if loads == 0 || stores == 0 {
		t.Fatalf("multiplexing captured loads=%d stores=%d; want both > 0 in one run",
			loads, stores)
	}
}

func TestAllocationEventsEmittedWhenEnabled(t *testing.T) {
	r := newRig(t, noMux(t))
	r.mon.Start()
	addr, _ := r.mon.Alloc(2048)
	r.mon.Free(addr)
	r.mon.Stop()
	var sawAlloc, sawFree bool
	for _, rec := range r.mon.Records() {
		if v, ok := rec.Get(trace.TypeAllocAddr); ok && uint64(v) == addr {
			sawAlloc = true
			if sz, _ := rec.Get(trace.TypeAllocSize); sz != 2048 {
				t.Errorf("alloc size event = %d", sz)
			}
		}
		if v, ok := rec.Get(trace.TypeFreeAddr); ok && uint64(v) == addr {
			sawFree = true
		}
	}
	if !sawAlloc || !sawFree {
		t.Errorf("alloc/free events = %v/%v", sawAlloc, sawFree)
	}
}

func TestAllocGrouping(t *testing.T) {
	r := newRig(t, DefaultConfig()) // MinTrackSize 512: 216-byte rows invisible
	ip, _ := r.fn.IPForLine(12)
	r.mon.PushFrame(ip)
	if err := r.mon.BeginAllocGroup("124_rows"); err != nil {
		t.Fatal(err)
	}
	var first uint64
	for i := 0; i < 200; i++ {
		a, _ := r.mon.Alloc(216)
		if i == 0 {
			first = a
		}
	}
	g, err := r.mon.EndAllocGroup()
	if err != nil {
		t.Fatal(err)
	}
	r.mon.PopFrame()
	if g.Members != 200 {
		t.Errorf("group members = %d", g.Members)
	}
	o, ok := r.mon.Registry().Resolve(first + 1000)
	if !ok || o != g {
		t.Error("grouped allocation not resolving to group")
	}
}

func TestReallocKeepsResolution(t *testing.T) {
	r := newRig(t, noMux(t))
	a, _ := r.mon.Alloc(4096)
	b, err := r.mon.Realloc(a, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.mon.Registry().Resolve(b + 500); !ok {
		t.Error("realloc'd object unresolvable")
	}
}

func TestDrainOverheadCharged(t *testing.T) {
	cfg := noMux(t)
	cfg.DrainOverheadCycles = 0
	r0 := newRig(t, cfg)
	cfg.DrainOverheadCycles = 100000
	r1 := newRig(t, cfg)
	for _, r := range []*rig{r0, r1} {
		addr, _ := r.mon.Alloc(1 << 20)
		r.mon.Start()
		ip, _ := r.fn.IPForLine(10)
		r.sweep(ip, addr, 1<<20, false)
		r.mon.Stop()
	}
	if r1.core.Cycles() <= r0.core.Cycles() {
		t.Errorf("drain overhead not charged: %d vs %d cycles",
			r1.core.Cycles(), r0.core.Cycles())
	}
}

func TestTraceRoundTripThroughWriter(t *testing.T) {
	r := newRig(t, noMux(t))
	addr, _ := r.mon.Alloc(64 << 10)
	reg := r.mon.RegisterRegion("k")
	r.mon.Start()
	ip, _ := r.fn.IPForLine(10)
	r.mon.EnterRegion(reg)
	r.sweep(ip, addr, 64<<10, false)
	r.mon.ExitRegion(reg)
	r.mon.Stop()

	recs := r.mon.Records()
	labels := r.mon.Labels()
	if labels.Values[trace.TypeRegion][int64(reg)] != "k" {
		t.Error("region label missing")
	}
	// All record times must be non-decreasing (single thread).
	for i := 1; i < len(recs); i++ {
		if recs[i].TimeNs < recs[i-1].TimeNs {
			t.Fatalf("record %d time regressed", i)
		}
	}
}
