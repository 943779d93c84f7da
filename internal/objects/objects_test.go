package objects

import (
	"strings"
	"testing"

	"repro/internal/memhier"
	"repro/internal/prog"
)

func TestKindString(t *testing.T) {
	if KindStatic.String() != "static" || KindDynamic.String() != "dynamic" ||
		KindGroup.String() != "group" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind name")
	}
}

func TestAddStaticAndResolve(t *testing.T) {
	r := NewRegistry(Config{})
	o, err := r.AddStatic(prog.StaticObject{Name: "table", Addr: 0x600000, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != KindStatic || o.Name != "table" || !o.Live {
		t.Errorf("object = %+v", o)
	}
	got, ok := r.Resolve(0x600800)
	if !ok || got != o {
		t.Error("Resolve failed")
	}
	if _, ok := r.Resolve(0x700000); ok {
		t.Error("Resolve false positive")
	}
	if _, err := r.AddStatic(prog.StaticObject{Name: "z", Size: 0}); err == nil {
		t.Error("zero-size static accepted")
	}
}

func TestScanBinary(t *testing.T) {
	b := prog.NewBinary()
	b.AddStaticData("a", 100)
	b.AddStaticData("b", 200)
	r := NewRegistry(Config{})
	if err := r.ScanBinary(b); err != nil {
		t.Fatal(err)
	}
	if len(r.Objects()) != 2 {
		t.Errorf("scanned %d objects", len(r.Objects()))
	}
}

func TestDynamicAllocTracking(t *testing.T) {
	r := NewRegistry(Config{MinTrackSize: 1024,
		Namer: func(id uint32) string { return "site" }})
	// Below threshold: skipped.
	r.OnAlloc(prog.AllocInfo{Addr: 0x1000, Size: 100, StackID: 1})
	if _, ok := r.Resolve(0x1000); ok {
		t.Error("below-threshold allocation tracked")
	}
	// At/above threshold: tracked.
	r.OnAlloc(prog.AllocInfo{Addr: 0x2000, Size: 4096, StackID: 2})
	o, ok := r.Resolve(0x2100)
	if !ok || o.Kind != KindDynamic || o.Name != "site" || o.StackID != 2 {
		t.Fatalf("tracked object = %+v, %v", o, ok)
	}
	st := r.Stats()
	if st.AllocsSeen != 2 || st.AllocsTracked != 1 || st.AllocsBelowThreshold != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFreeRemovesResolution(t *testing.T) {
	r := NewRegistry(Config{})
	info := prog.AllocInfo{Addr: 0x2000, Size: 64, StackID: 1}
	r.OnAlloc(info)
	o, _ := r.Resolve(0x2000)
	r.OnFree(info)
	if _, ok := r.Resolve(0x2000); ok {
		t.Error("freed object still resolvable")
	}
	if o.Live {
		t.Error("freed object still live")
	}
	// Unknown free is ignored.
	r.OnFree(prog.AllocInfo{Addr: 0x9999, Size: 1})
	// Accounting survives the free.
	if len(r.Objects()) != 1 {
		t.Error("object history lost")
	}
}

func TestGroupAbsorbsSmallAllocations(t *testing.T) {
	// The paper's scenario: many consecutive small allocations below the
	// threshold, wrapped into one group.
	r := NewRegistry(Config{MinTrackSize: 1024})
	if err := r.BeginGroup("124_GenerateProblem_ref.cpp"); err != nil {
		t.Fatal(err)
	}
	base := uint64(0x10000)
	var total uint64
	for i := uint64(0); i < 100; i++ {
		size := uint64(216) // well below threshold
		r.OnAlloc(prog.AllocInfo{Addr: base, Size: size, StackID: 9})
		base += 224
		total += size
	}
	g, err := r.EndGroup()
	if err != nil {
		t.Fatal(err)
	}
	if g.Members != 100 || g.Bytes != total {
		t.Errorf("group members/bytes = %d/%d", g.Members, g.Bytes)
	}
	if g.Range.Lo != 0x10000 || g.Range.Hi != 0x10000+99*224+216 {
		t.Errorf("group range = %v", g.Range)
	}
	// Every member address resolves to the group, including allocator
	// padding between members (first-to-last wrapping).
	for _, a := range []uint64{0x10000, 0x10000 + 50*224 + 10, g.Range.Hi - 1} {
		o, ok := r.Resolve(a)
		if !ok || o != g {
			t.Errorf("Resolve(%#x) missed the group", a)
		}
	}
	if r.Stats().AllocsGrouped != 100 {
		t.Errorf("AllocsGrouped = %d", r.Stats().AllocsGrouped)
	}
}

func TestGroupErrors(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.EndGroup(); err == nil {
		t.Error("EndGroup without BeginGroup accepted")
	}
	r.BeginGroup("g")
	if err := r.BeginGroup("h"); err == nil {
		t.Error("nested group accepted")
	}
	if _, err := r.EndGroup(); err == nil {
		t.Error("empty group accepted")
	}
	// After the failed EndGroup the group is closed.
	if err := r.BeginGroup("i"); err != nil {
		t.Errorf("BeginGroup after empty group: %v", err)
	}
}

func TestRecordAccounting(t *testing.T) {
	r := NewRegistry(Config{})
	r.OnAlloc(prog.AllocInfo{Addr: 0x1000, Size: 4096, StackID: 1})
	r.Record(0x1100, 230, false, memhier.SrcDRAM)
	r.Record(0x1200, 4, true, memhier.SrcL1)
	o, ok := r.Record(0x1300, 36, false, memhier.SrcL3)
	if !ok {
		t.Fatal("Record failed to resolve")
	}
	if o.Refs != 3 || o.Loads != 2 || o.Stores != 1 {
		t.Errorf("refs/loads/stores = %d/%d/%d", o.Refs, o.Loads, o.Stores)
	}
	if o.LatencySum != 270 {
		t.Errorf("latency sum = %d", o.LatencySum)
	}
	if o.Sources[memhier.SrcDRAM] != 1 || o.Sources[memhier.SrcL1] != 1 || o.Sources[memhier.SrcL3] != 1 {
		t.Errorf("sources = %v", o.Sources)
	}
	if got := o.MeanLatency(); got != 90 {
		t.Errorf("MeanLatency = %g", got)
	}
	// Unresolved reference.
	if _, ok := r.Record(0xdead0000, 1, false, memhier.SrcL1); ok {
		t.Error("unresolved Record returned ok")
	}
	if rate := r.ResolutionRate(); rate != 0.75 {
		t.Errorf("ResolutionRate = %g, want 0.75", rate)
	}
}

func TestResolutionRateEmpty(t *testing.T) {
	r := NewRegistry(Config{})
	if r.ResolutionRate() != 1 {
		t.Error("empty registry rate should be 1")
	}
	var o Object
	if o.MeanLatency() != 0 {
		t.Error("unreferenced MeanLatency should be 0")
	}
}

func TestDefaultNamer(t *testing.T) {
	r := NewRegistry(Config{})
	r.OnAlloc(prog.AllocInfo{Addr: 0x1000, Size: 64, StackID: 42})
	o, _ := r.Resolve(0x1000)
	if o.Name != "alloc_42" {
		t.Errorf("default name = %q", o.Name)
	}
}

func TestLabel(t *testing.T) {
	big := &Object{Name: "124_GenerateProblem_ref.cpp", Bytes: 617 << 20}
	if got := big.Label(); got != "124_GenerateProblem_ref.cpp|617 MB" {
		t.Errorf("Label = %q", got)
	}
	mid := &Object{Name: "x", Bytes: 4 << 10}
	if got := mid.Label(); got != "x|4 KB" {
		t.Errorf("Label = %q", got)
	}
	small := &Object{Name: "y", Bytes: 17}
	if got := small.Label(); got != "y|17 B" {
		t.Errorf("Label = %q", got)
	}
}

func TestEndToEndWithAddressSpace(t *testing.T) {
	// Wire a real address space's hooks to the registry, as the monitor does.
	as := prog.NewAddressSpace(0x7f0000000000)
	r := NewRegistry(Config{MinTrackSize: 512})
	as.SetHooks(prog.Hooks{OnAlloc: r.OnAlloc, OnFree: r.OnFree})

	big, _ := as.Alloc(1<<20, 1)
	r.BeginGroup("rows")
	for i := 0; i < 50; i++ {
		as.Alloc(216, 2)
	}
	g, err := r.EndGroup()
	if err != nil {
		t.Fatal(err)
	}
	o, ok := r.Resolve(big + 100)
	if !ok || o.Kind != KindDynamic {
		t.Error("big allocation not resolved")
	}
	if g.Members != 50 {
		t.Errorf("group members = %d", g.Members)
	}
	// A small allocation outside any group is invisible.
	small, _ := as.Alloc(64, 3)
	if _, ok := r.Resolve(small); ok {
		t.Error("small un-grouped allocation resolved")
	}
	// Realloc of the big object: moves, old range dies, new resolves.
	big2, _ := as.Realloc(big, 2<<20, 1)
	if _, ok := r.Resolve(big + 100); ok && big2 != big {
		t.Error("stale range still resolvable after realloc move")
	}
	if _, ok := r.Resolve(big2 + 100); !ok {
		t.Error("moved object unresolvable")
	}
	if !strings.Contains(g.Label(), "rows|") {
		t.Errorf("group label = %q", g.Label())
	}
}
