package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 0x1000, Hi: 0x2000}
	if !iv.Contains(0x1000) {
		t.Error("Lo must be contained")
	}
	if iv.Contains(0x2000) {
		t.Error("Hi must be excluded (half-open)")
	}
	if !iv.Contains(0x1fff) {
		t.Error("Hi-1 must be contained")
	}
	if got := iv.String(); got != "[0x1000,0x2000)" {
		t.Errorf("String = %q", got)
	}
}

func TestInsertRejectsEmpty(t *testing.T) {
	var tr Tree[int]
	if err := tr.Insert(Interval{5, 5}, 0); err != ErrEmpty {
		t.Errorf("empty interval: err = %v, want ErrEmpty", err)
	}
	if err := tr.Insert(Interval{6, 5}, 0); err != ErrEmpty {
		t.Errorf("inverted interval: err = %v, want ErrEmpty", err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after rejected inserts", tr.Len())
	}
}

func TestInsertReplaceValue(t *testing.T) {
	var tr Tree[string]
	if err := tr.Insert(Interval{1, 2}, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(Interval{1, 2}, "b"); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replace)", tr.Len())
	}
	_, v, ok := tr.Stab(1)
	if !ok || v != "b" {
		t.Errorf("Stab = %q, %v; want \"b\", true", v, ok)
	}
}

func TestStabPicksInnermost(t *testing.T) {
	var tr Tree[string]
	must(t, tr.Insert(Interval{0, 100}, "outer"))
	must(t, tr.Insert(Interval{10, 50}, "mid"))
	must(t, tr.Insert(Interval{20, 30}, "inner"))
	cases := []struct {
		addr uint64
		want string
	}{
		{5, "outer"}, {15, "mid"}, {25, "inner"}, {40, "mid"}, {60, "outer"},
	}
	for _, c := range cases {
		_, v, ok := tr.Stab(c.addr)
		if !ok || v != c.want {
			t.Errorf("Stab(%d) = %q, %v; want %q", c.addr, v, ok, c.want)
		}
	}
	if _, _, ok := tr.Stab(100); ok {
		t.Error("Stab(100) matched; 100 is outside all intervals")
	}
}

func TestDelete(t *testing.T) {
	var tr Tree[int]
	ivs := []Interval{{0, 10}, {10, 20}, {20, 30}, {5, 25}}
	for i, iv := range ivs {
		must(t, tr.Insert(iv, i))
	}
	if err := tr.Delete(Interval{10, 20}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	_, v, ok := tr.Stab(12)
	if !ok || v != 3 {
		t.Errorf("Stab(12) = %v, %v; want value 3 ({5,25})", v, ok)
	}
	if err := tr.Delete(Interval{10, 20}); err != ErrNotFound {
		t.Errorf("double delete err = %v, want ErrNotFound", err)
	}
}

// brute is a reference implementation used by the property tests.
type brute struct {
	ivs  []Interval
	vals []int
}

func (b *brute) insert(iv Interval, v int) {
	for i := range b.ivs {
		if b.ivs[i] == iv {
			b.vals[i] = v
			return
		}
	}
	b.ivs = append(b.ivs, iv)
	b.vals = append(b.vals, v)
}

func (b *brute) stab(addr uint64) (Interval, int, bool) {
	var (
		bi    Interval
		bv    int
		found bool
	)
	for i, iv := range b.ivs {
		if !iv.Contains(addr) {
			continue
		}
		if !found || iv.Lo > bi.Lo || (iv.Lo == bi.Lo && iv.Hi < bi.Hi) {
			bi, bv, found = iv, b.vals[i], true
		}
	}
	return bi, bv, found
}

func TestPropertyStabMatchesBrute(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tree[int]
		var br brute
		for i := 0; i < int(n)+1; i++ {
			lo := uint64(rng.Intn(1000))
			hi := lo + 1 + uint64(rng.Intn(100))
			iv := Interval{lo, hi}
			if err := tr.Insert(iv, i); err != nil {
				return false
			}
			br.insert(iv, i)
		}
		if tr.Len() != len(br.ivs) {
			return false
		}
		for a := uint64(0); a < 1100; a += 7 {
			wi, wv, wok := br.stab(a)
			gi, gv, gok := tr.Stab(a)
			if wok != gok || (wok && (wi != gi || wv != gv)) {
				t.Logf("addr %d: got %v,%d,%v want %v,%d,%v", a, gi, gv, gok, wi, wv, wok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBalanced(t *testing.T) {
	// AVL height must stay within 1.45*log2(n+2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tree[int]
		n := 500
		for i := 0; i < n; i++ {
			lo := uint64(rng.Intn(1 << 20))
			if err := tr.Insert(Interval{lo, lo + 1 + uint64(rng.Intn(64))}, i); err != nil {
				return false
			}
		}
		// log2(502) ~ 9; bound 1.45*9+2 ~ 15.
		return height(tr.root) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeleteAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tree[int]
		var br brute
		for i := 0; i < 200; i++ {
			lo := uint64(rng.Intn(1 << 16))
			iv := Interval{lo, lo + 1 + uint64(rng.Intn(256))}
			if err := tr.Insert(iv, i); err != nil {
				return false
			}
			br.insert(iv, i)
		}
		ivs := br.ivs
		rng.Shuffle(len(ivs), func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
		for _, iv := range ivs {
			if err := tr.Delete(iv); err != nil {
				return false
			}
		}
		return tr.Len() == 0 && height(tr.root) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
