package memhier

import "testing"

// parityRouter is a stub DRAMRouter homing every even 4 KiB page locally
// and every odd page remotely, counting the routed traffic.
type parityRouter struct {
	fills, remoteFills, writebacks uint64
	multi                          bool
}

func (r *parityRouter) RouteFill(lineAddr uint64) bool {
	r.fills++
	if !r.multi {
		return false
	}
	if (lineAddr>>12)&1 == 1 {
		r.remoteFills++
		return true
	}
	return false
}

func (r *parityRouter) RouteWriteback(lineAddr uint64) { r.writebacks++ }
func (r *parityRouter) RemotePossible() bool           { return r.multi }

// TestRoutedDRAMFills pins the NUMA fill path: a routed hierarchy labels
// odd-page fills SrcDRAMRemote with the remote latency, counts them in
// both the total and the remote DRAM counters, and still resolves cache
// hits without consulting the router.
func TestRoutedDRAMFills(t *testing.T) {
	h, err := New(Config{
		Levels: []LevelConfig{
			{Name: "L1D", Size: 512, LineSize: 64, Assoc: 2, HitLatency: 4},
			{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 12},
		},
		DRAMLatency:       100,
		RemoteDRAMLatency: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &parityRouter{multi: true}
	h.SetDRAMRouter(r)
	if !h.RemoteDRAMPossible() {
		t.Fatal("routed hierarchy does not report remote possible")
	}
	if got := h.SourceLatency(SrcDRAMRemote); got != 160 {
		t.Fatalf("SourceLatency(SrcDRAMRemote) = %d", got)
	}

	local := h.Access(0x0000, 8, false) // even page
	if local.Source != SrcDRAM || local.Latency != 100 {
		t.Fatalf("even-page fill: %+v", local)
	}
	remote := h.Access(0x1000, 8, false) // odd page
	if remote.Source != SrcDRAMRemote || remote.Latency != 160 {
		t.Fatalf("odd-page fill: %+v", remote)
	}
	if h.DRAMAccesses() != 2 || h.RemoteDRAMAccesses() != 1 {
		t.Fatalf("fills total=%d remote=%d", h.DRAMAccesses(), h.RemoteDRAMAccesses())
	}
	// A repeat access hits L1: the router must not be consulted again.
	before := r.fills
	if res := h.Access(0x1000, 8, false); res.Source != SrcL1 {
		t.Fatalf("repeat access: %+v", res)
	}
	if r.fills != before {
		t.Fatal("cache hit consulted the router")
	}
}

// TestRoutedAccessRun pins the batched path: AccessRun buckets remote
// fills into Lines[SrcDRAMRemote] and the op total accounts for them.
func TestRoutedAccessRun(t *testing.T) {
	h, err := New(Config{
		Levels: []LevelConfig{
			{Name: "L1D", Size: 512, LineSize: 64, Assoc: 2, HitLatency: 4},
		},
		DRAMLatency:       100,
		RemoteDRAMLatency: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SetDRAMRouter(&parityRouter{multi: true})
	var rr RunResult
	// Sweep two pages: 128 element accesses over 1024 doubles = 8 KiB.
	h.AccessRun(0, 8, 1024, false, &rr)
	if rr.Lines[SrcDRAM] != 64 || rr.Lines[SrcDRAMRemote] != 64 {
		t.Fatalf("run lines: %+v", rr.Lines)
	}
	if got := runOps(&rr); got != 1024 {
		t.Fatalf("run accounts for %d ops", got)
	}
}

// TestSharedCacheWritebackRouting pins the LLC writeback attribution: a
// dirty line evicted out of a routed SharedCache reaches the router with
// its reconstructed global address (the stub counts it; the numa package's
// own tests check node attribution).
func TestSharedCacheWritebackRouting(t *testing.T) {
	// 2 sets x 1 way: two lines of cache, 2 shards -> 1 set per shard.
	llc, err := NewSharedCache(LevelConfig{Name: "L3", Size: 128, LineSize: 64, Assoc: 1, HitLatency: 36}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := &parityRouter{multi: true}
	llc.SetDRAMRouter(r)
	// Make line 0 dirty in the LLC via a private dirty eviction.
	llc.installDirty(0)
	// Conflict-miss the same shard: line 0 and line 2*64*2... shard = low
	// line bit, so lines 0 and 4 share shard 0 and its single set/way.
	llc.access(4 * 64)
	if r.writebacks != 1 {
		t.Fatalf("writebacks routed: %d", r.writebacks)
	}
}

// TestRemoteLatencyValidation pins the config check.
func TestRemoteLatencyValidation(t *testing.T) {
	_, err := New(Config{
		Levels:            []LevelConfig{{Name: "L1D", Size: 512, LineSize: 64, Assoc: 2, HitLatency: 4}},
		DRAMLatency:       100,
		RemoteDRAMLatency: 50,
	})
	if err == nil {
		t.Fatal("remote latency below local accepted")
	}
}
