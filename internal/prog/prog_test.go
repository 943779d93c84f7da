package prog

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// liveBytes sums the requested sizes of the live allocations.
func liveBytes(as *AddressSpace) uint64 {
	var n uint64
	for _, info := range as.live {
		n += info.Size
	}
	return n
}

func TestAllocBasics(t *testing.T) {
	as := NewAddressSpace(0x10000)
	a1, err := as.Alloc(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != 0x10000 {
		t.Errorf("first alloc at %#x, want %#x", a1, 0x10000)
	}
	a2, err := as.Alloc(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1+112 { // 100 rounded to 112 (16-byte alignment)
		t.Errorf("second alloc at %#x, want %#x", a2, a1+112)
	}
	if a2%16 != 0 {
		t.Error("allocation not 16-byte aligned")
	}
	if liveBytes(as) != 108 {
		t.Errorf("LiveBytes = %d, want 108", liveBytes(as))
	}
}

func TestAllocZeroSize(t *testing.T) {
	as := NewAddressSpace(0)
	if _, err := as.Alloc(0, 0); err != ErrZeroSize {
		t.Errorf("zero alloc err = %v", err)
	}
	if _, err := as.Realloc(0, 0, 0); err != ErrZeroSize {
		t.Errorf("zero realloc err = %v", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	as := NewAddressSpace(0x1000)
	a, _ := as.Alloc(64, 0)
	if err := as.Free(a); err != nil {
		t.Fatal(err)
	}
	if liveBytes(as) != 0 {
		t.Errorf("LiveBytes after free = %d", liveBytes(as))
	}
	// Same-size alloc reuses the freed block.
	b, _ := as.Alloc(64, 0)
	if b != a {
		t.Errorf("freed block not reused: %#x vs %#x", b, a)
	}
	if err := as.Free(0xdead); err == nil {
		t.Error("freeing unknown address must fail")
	}
	as.Free(b)
	if err := as.Free(b); err == nil {
		t.Error("double free must fail")
	}
}

func TestReallocGrowMoves(t *testing.T) {
	as := NewAddressSpace(0x1000)
	a, _ := as.Alloc(64, 5)
	b, err := as.Realloc(a, 4096, 6)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Error("grow realloc should move the block")
	}
	if liveBytes(as) != 4096 {
		t.Errorf("LiveBytes = %d, want 4096", liveBytes(as))
	}
	if _, err := as.Realloc(0xbeef, 10, 0); err == nil {
		t.Error("realloc of unknown address must fail")
	}
}

func TestReallocSameBlockInPlace(t *testing.T) {
	as := NewAddressSpace(0x1000)
	a, _ := as.Alloc(60, 5)
	b, err := as.Realloc(a, 64, 5) // both round to 64
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("in-place realloc moved: %#x vs %#x", b, a)
	}
	if liveBytes(as) != 64 {
		t.Errorf("LiveBytes = %d, want 64", liveBytes(as))
	}
}

func TestHooksFire(t *testing.T) {
	as := NewAddressSpace(0x1000)
	var allocs, frees []AllocInfo
	as.SetHooks(Hooks{
		OnAlloc: func(i AllocInfo) { allocs = append(allocs, i) },
		OnFree:  func(i AllocInfo) { frees = append(frees, i) },
	})
	a, _ := as.Alloc(100, 7)
	if len(allocs) != 1 || allocs[0].Addr != a || allocs[0].StackID != 7 {
		t.Fatalf("alloc hook = %+v", allocs)
	}
	as.Realloc(a, 5000, 8)
	if len(frees) != 1 || frees[0].Addr != a {
		t.Fatalf("realloc did not fire free hook: %+v", frees)
	}
	if len(allocs) != 2 || allocs[1].StackID != 8 {
		t.Fatalf("realloc did not fire alloc hook: %+v", allocs)
	}
}

func TestPropertyAllocationsDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(0x100000)
		var addrs []uint64
		for i := 0; i < 100; i++ {
			switch {
			case len(addrs) > 0 && rng.Intn(3) == 0:
				i := rng.Intn(len(addrs))
				if as.Free(addrs[i]) != nil {
					return false
				}
				addrs = append(addrs[:i], addrs[i+1:]...)
			default:
				a, err := as.Alloc(uint64(1+rng.Intn(500)), 0)
				if err != nil {
					return false
				}
				addrs = append(addrs, a)
			}
		}
		// All live allocations must be pairwise disjoint.
		var live []AllocInfo
		for _, info := range as.live {
			live = append(live, info)
		}
		slices.SortFunc(live, func(a, b AllocInfo) int { return cmp.Compare(a.Addr, b.Addr) })
		for i := 1; i < len(live); i++ {
			prevEnd := live[i-1].Addr + roundSize(live[i-1].Size)
			if live[i].Addr < prevEnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinaryFunctions(t *testing.T) {
	b := NewBinary()
	f, err := b.AddFunction("ComputeSPMV_ref", "ComputeSPMV_ref.cpp", 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := f.IPForLine(75)
	if err != nil {
		t.Fatal(err)
	}
	loc, ok := b.Lookup(ip)
	if !ok {
		t.Fatal("Lookup failed")
	}
	if loc.Function != "ComputeSPMV_ref" || loc.File != "ComputeSPMV_ref.cpp" || loc.Line != 75 {
		t.Errorf("Lookup = %+v", loc)
	}
	if _, err := f.IPForLine(59); err == nil {
		t.Error("line before function accepted")
	}
	if _, err := f.IPForLine(90); err == nil {
		t.Error("line after function accepted")
	}
	if got := loc.String(); !strings.Contains(got, "ComputeSPMV_ref.cpp:75") {
		t.Errorf("Location.String = %q", got)
	}
}

func TestBinaryValidation(t *testing.T) {
	b := NewBinary()
	if _, err := b.AddFunction("", "f.c", 1, 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := b.AddFunction("f", "f.c", 0, 1); err == nil {
		t.Error("zero start line accepted")
	}
	b.AddFunction("f", "f.c", 1, 5)
	if _, err := b.AddFunction("f", "g.c", 1, 5); err == nil {
		t.Error("duplicate function accepted")
	}
	if _, ok := b.Function("f"); !ok {
		t.Error("Function lookup failed")
	}
	if _, ok := b.Function("missing"); ok {
		t.Error("missing function found")
	}
	if len(b.funcs) != 1 {
		t.Error("funcs wrong length")
	}
}

func TestBinaryLookupMiss(t *testing.T) {
	b := NewBinary()
	f1, _ := b.AddFunction("a", "a.c", 10, 3)
	b.AddFunction("b", "b.c", 1, 3)
	if _, ok := b.Lookup(0); ok {
		t.Error("Lookup(0) matched")
	}
	if _, ok := b.Lookup(f1.HighIP() + 1000); ok {
		t.Error("Lookup far past end matched")
	}
	// Boundary: HighIP of last function is exclusive.
	last := b.funcs[1]
	if _, ok := b.Lookup(last.HighIP()); ok {
		t.Error("HighIP should be exclusive")
	}
	if loc, ok := b.Lookup(last.HighIP() - 1); !ok || loc.Line != 3 {
		t.Errorf("last byte of last line = %+v, %v", loc, ok)
	}
}

func TestStaticData(t *testing.T) {
	b := NewBinary()
	o1, err := b.AddStaticData("global_table", 4096)
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := b.AddStaticData("flags", 8)
	if o2.Addr < o1.Addr+4096 {
		t.Error("static objects overlap")
	}
	if len(b.StaticObjects()) != 2 {
		t.Error("StaticObjects wrong length")
	}
	if _, err := b.AddStaticData("", 4); err == nil {
		t.Error("unnamed static accepted")
	}
	if _, err := b.AddStaticData("x", 0); err == nil {
		t.Error("zero-size static accepted")
	}
}

func TestCallStack(t *testing.T) {
	var cs CallStack
	if len(cs.frames) != 0 {
		t.Error("empty stack state")
	}
	cs.Push(100)
	cs.Push(200)
	if len(cs.frames) != 2 || cs.frames[1] != 200 {
		t.Errorf("frames = %v", cs.frames)
	}
	snap := cs.Snapshot()
	cs.Pop()
	if len(cs.frames) != 1 || cs.frames[0] != 100 {
		t.Error("Pop wrong")
	}
	if len(snap) != 2 || snap[0] != 100 || snap[1] != 200 {
		t.Errorf("Snapshot = %v (must be unaffected by Pop)", snap)
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop of empty stack did not panic")
		}
	}()
	cs.Pop()
	cs.Pop()
}

func TestStackTableIntern(t *testing.T) {
	st := NewStackTable()
	if st.Len() != 1 {
		t.Fatal("table must start with empty stack id 0")
	}
	id1 := st.Intern([]uint64{1, 2, 3})
	id2 := st.Intern([]uint64{1, 2, 3})
	id3 := st.Intern([]uint64{1, 2})
	if id1 != id2 {
		t.Error("identical stacks got different ids")
	}
	if id1 == id3 {
		t.Error("different stacks share an id")
	}
	if id0 := st.Intern(nil); id0 != 0 {
		t.Errorf("empty stack id = %d, want 0", id0)
	}
	fr := st.Frames(id1)
	if len(fr) != 3 || fr[2] != 3 {
		t.Errorf("Frames = %v", fr)
	}
	if st.Frames(9999) != nil {
		t.Error("unknown id should give nil frames")
	}
}

func TestStackFormatAndSiteName(t *testing.T) {
	b := NewBinary()
	fMain, _ := b.AddFunction("main", "main.cpp", 1, 50)
	fGen, _ := b.AddFunction("GenerateProblem", "GenerateProblem_ref.cpp", 100, 60)
	ipMain, _ := fMain.IPForLine(10)
	ipGen, _ := fGen.IPForLine(108)
	st := NewStackTable()
	id := st.Intern([]uint64{ipMain, ipGen})
	site := st.SiteName(id, b)
	if site != "108_GenerateProblem_ref.cpp" {
		t.Errorf("SiteName = %q, want 108_GenerateProblem_ref.cpp", site)
	}
	if st.SiteName(0, b) != "unknown" {
		t.Error("empty stack site name")
	}
	// Unresolvable IP falls back to hex.
	idBad := st.Intern([]uint64{0xdead0000})
	if got := st.SiteName(idBad, b); !strings.HasPrefix(got, "ip_") {
		t.Errorf("unresolvable site = %q", got)
	}
}

func TestPropertyStackInternRoundTrip(t *testing.T) {
	f := func(frames []uint64) bool {
		st := NewStackTable()
		id := st.Intern(frames)
		got := st.Frames(id)
		if len(got) != len(frames) {
			return len(frames) == 0 && got == nil
		}
		for i := range frames {
			if got[i] != frames[i] {
				return false
			}
		}
		// Interning again must return the same id.
		return st.Intern(frames) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
