package cpu

import (
	"math"
	"testing"

	"repro/internal/memhier"
)

func newCore(t *testing.T) *Core {
	t.Helper()
	h, err := memhier.New(memhier.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	h, _ := memhier.New(memhier.DefaultConfig())
	bad := []Config{
		{FreqHz: 0, ComputeIPC: 1},
		{FreqHz: 1e9, ComputeIPC: 0},
		{FreqHz: 1e9, ComputeIPC: 1, MemOverlap: 1},
		{FreqHz: 1e9, ComputeIPC: 1, MemOverlap: -0.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, h); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil hierarchy accepted")
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := CounterID(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" || seen[n] {
			t.Errorf("counter %d name %q empty or duplicated", c, n)
		}
		seen[n] = true
	}
	if CounterID(99).String() != "CounterID(99)" {
		t.Error("unknown counter name")
	}
}

func TestComputeAccounting(t *testing.T) {
	c := newCore(t)
	c.Compute(1000)
	if got := c.PMU().True(CtrInstructions); got != 1000 {
		t.Errorf("instructions = %d, want 1000", got)
	}
	// IPC 2: 1000 instructions take 500 cycles.
	if c.Cycles() != 500 {
		t.Errorf("cycles = %d, want 500", c.Cycles())
	}
}

func TestComputeFractionalAccumulation(t *testing.T) {
	c := newCore(t)
	// Single instructions at IPC 2 are half a cycle each; two of them must
	// advance the clock by exactly one cycle, not zero.
	c.Compute(1)
	c.Compute(1)
	if c.Cycles() != 1 {
		t.Errorf("cycles = %d, want 1 (fractional accumulation)", c.Cycles())
	}
}

func TestBranchCountsAsInstruction(t *testing.T) {
	c := newCore(t)
	c.Branch()
	if c.PMU().True(CtrBranches) != 1 || c.PMU().True(CtrInstructions) != 1 {
		t.Error("branch must count as branch and instruction")
	}
}

func TestLoadStoreCounters(t *testing.T) {
	c := newCore(t)
	c.Load(0x400000, 0x1000, 8)  // cold: DRAM
	c.Load(0x400000, 0x1000, 8)  // L1 hit
	c.Store(0x400010, 0x1000, 8) // L1 hit
	p := c.PMU()
	if p.True(CtrLoads) != 2 || p.True(CtrStores) != 1 {
		t.Errorf("loads/stores = %d/%d", p.True(CtrLoads), p.True(CtrStores))
	}
	// The cold DRAM access misses all three levels.
	if p.True(CtrL1DMiss) != 1 || p.True(CtrL2Miss) != 1 || p.True(CtrL3Miss) != 1 {
		t.Errorf("miss counters = %d/%d/%d, want 1/1/1",
			p.True(CtrL1DMiss), p.True(CtrL2Miss), p.True(CtrL3Miss))
	}
	if p.True(CtrInstructions) != 3 {
		t.Errorf("instructions = %d, want 3", p.True(CtrInstructions))
	}
}

func TestMemOverlapReducesStall(t *testing.T) {
	h1, _ := memhier.New(memhier.DefaultConfig())
	h2, _ := memhier.New(memhier.DefaultConfig())
	serial, _ := New(Config{FreqHz: 2.5e9, ComputeIPC: 2, MemOverlap: 0}, h1)
	overlap, _ := New(Config{FreqHz: 2.5e9, ComputeIPC: 2, MemOverlap: 0.8}, h2)
	for i := uint64(0); i < 10000; i++ {
		serial.Load(0x400000, i*64, 8) // always new line: DRAM-heavy
		overlap.Load(0x400000, i*64, 8)
	}
	if overlap.Cycles() >= serial.Cycles() {
		t.Errorf("overlap %d cycles not below serial %d", overlap.Cycles(), serial.Cycles())
	}
}

func TestMemHookObservesOps(t *testing.T) {
	c := newCore(t)
	var ops []MemOp
	c.SetMemHook(func(op MemOp) { ops = append(ops, op) })
	c.Load(0x401000, 0xabc0, 8)
	c.Store(0x401010, 0xabc8, 8)
	if len(ops) != 2 {
		t.Fatalf("hook saw %d ops, want 2", len(ops))
	}
	if ops[0].Store || !ops[1].Store {
		t.Error("store flag wrong")
	}
	if ops[0].Addr != 0xabc0 || ops[0].IP != 0x401000 {
		t.Errorf("op fields = %+v", ops[0])
	}
	if ops[0].Source != memhier.SrcDRAM {
		t.Errorf("cold load source = %v", ops[0].Source)
	}
	if ops[1].Source != memhier.SrcL1 {
		t.Errorf("same-line store source = %v (expected L1 after fill)", ops[1].Source)
	}
	if ops[0].Latency == 0 || ops[1].Cycle <= ops[0].Cycle {
		t.Error("latency/cycle fields not populated")
	}
}

func TestNowNs(t *testing.T) {
	c := newCore(t)
	c.Compute(5_000_000) // 2.5M cycles at 2.5GHz = 1ms
	if got := c.NowNs(); got != 1_000_000 {
		t.Errorf("NowNs = %d, want 1000000", got)
	}
	if c.FreqHz() != 2.5e9 {
		t.Errorf("FreqHz = %g", c.FreqHz())
	}
}

func TestPMUProgramValidation(t *testing.T) {
	p := NewPMU()
	if err := p.Program(nil, 0); err == nil {
		t.Error("empty groups accepted")
	}
	if err := p.Program([][]CounterID{{CtrLoads}, {CtrStores}}, 0); err == nil {
		t.Error("multiplexing without quantum accepted")
	}
	if err := p.Program([][]CounterID{{CtrInstructions}}, 0); err == nil {
		t.Error("fixed counter in group accepted")
	}
	if err := p.Program([][]CounterID{{CtrLoads}, {CtrLoads}}, 100); err == nil {
		t.Error("duplicate counter accepted")
	}
	if err := p.Program([][]CounterID{{CounterID(77)}}, 0); err == nil {
		t.Error("invalid counter accepted")
	}
	if err := p.Program([][]CounterID{{CtrLoads, CtrStores}}, 0); err != nil {
		t.Errorf("valid single group rejected: %v", err)
	}
	if len(p.groups) != 1 {
		t.Error("groups wrong")
	}
}

// TestPMUProgramPreservesCounts pins two Program behaviours: switching from
// the never-multiplexed fast path to a multiplexed config must fold the
// fast path's skipped bookkeeping forward (pre-mux counts stay readable),
// and a failed Program must leave the old programming fully readable.
func TestPMUProgramPreservesCounts(t *testing.T) {
	p := NewPMU()
	p.count(CtrLoads, 100)
	p.tick(50)
	if err := p.Program([][]CounterID{{CtrLoads}, {CtrStores}}, 10); err != nil {
		t.Fatal(err)
	}
	if got := p.Read(CtrLoads); got != 100 {
		t.Errorf("pre-mux loads lost across Program: Read = %d, want 100", got)
	}

	p2 := NewPMU()
	p2.count(CtrStores, 5)
	if err := p2.Program([][]CounterID{{CounterID(77)}}, 0); err == nil {
		t.Fatal("invalid counter accepted")
	}
	if got := p2.Read(CtrStores); got != 5 {
		t.Errorf("failed Program corrupted state: Read(stores) = %d, want 5", got)
	}
}

func TestPMUNoMultiplexingExact(t *testing.T) {
	c := newCore(t)
	for i := uint64(0); i < 1000; i++ {
		c.Load(0x400000, i*8, 8)
	}
	p := c.PMU()
	for ctr := CounterID(0); ctr < NumCounters; ctr++ {
		if p.Read(ctr) != p.True(ctr) {
			t.Errorf("%v: Read %d != True %d without multiplexing",
				ctr, p.Read(ctr), p.True(ctr))
		}
	}
}

func TestPMUMultiplexedEstimate(t *testing.T) {
	c := newCore(t)
	// Two groups: loads vs stores, rotating every 1000 cycles.
	err := c.PMU().Program([][]CounterID{{CtrLoads}, {CtrStores}}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// A homogeneous alternating stream: estimates should land close to truth.
	for i := uint64(0); i < 200000; i++ {
		if i%2 == 0 {
			c.Load(0x400000, (i%4096)*8, 8)
		} else {
			c.Store(0x400000, (i%4096)*8, 8)
		}
	}
	p := c.PMU()
	for _, ctr := range []CounterID{CtrLoads, CtrStores} {
		truth := float64(p.True(ctr))
		est := float64(p.Read(ctr))
		if math.Abs(est-truth)/truth > 0.1 {
			t.Errorf("%v: estimate %g vs truth %g (>10%% error on homogeneous stream)",
				ctr, est, truth)
		}
	}
	// Unprogrammed counter reads zero.
	if p.Read(CtrBranches) != 0 {
		t.Error("unprogrammed counter must read 0")
	}
	// Fixed counters are unaffected by multiplexing.
	if p.Read(CtrInstructions) != p.True(CtrInstructions) {
		t.Error("fixed counter must read exact under multiplexing")
	}
}

func TestPMUSlotRotation(t *testing.T) {
	p := NewPMU()
	if err := p.Program([][]CounterID{{CtrLoads}, {CtrStores}}, 100); err != nil {
		t.Fatal(err)
	}
	if p.slot != 0 {
		t.Error("initial slot not 0")
	}
	p.tick(100)
	if p.slot != 1 {
		t.Errorf("after one quantum slot = %d, want 1", p.slot)
	}
	p.tick(250) // wraps 2.5 quanta: 1 -> 0 -> 1, half quantum into slot 1...
	// 250 cycles = 2 full quanta (to slot 0 then 1) + 50 residue.
	if p.slot != 1 {
		t.Errorf("slot = %d after 350 total cycles, want 1", p.slot)
	}
	// Counting attribution: only active-slot events become visible.
	p.count(CtrStores, 5) // stores group is active
	p.count(CtrLoads, 3)  // loads group inactive
	if p.visible[CtrStores] != 5 || p.visible[CtrLoads] != 0 {
		t.Errorf("visible = loads %d stores %d", p.visible[CtrLoads], p.visible[CtrStores])
	}
	if p.True(CtrLoads) != 3 {
		t.Error("raw count lost")
	}
}

func TestPMUSnapshots(t *testing.T) {
	c := newCore(t)
	c.Compute(100)
	c.Load(0x400000, 0, 8)
	s := c.PMU().Snapshot()
	ts := c.PMU().TrueSnapshot()
	if s[CtrInstructions] != 101 || ts[CtrInstructions] != 101 {
		t.Errorf("snapshot instructions = %d/%d", s[CtrInstructions], ts[CtrInstructions])
	}
	if s[CtrLoads] != 1 {
		t.Errorf("snapshot loads = %d", s[CtrLoads])
	}
}
