package memhier

import (
	"math/rand"
	"testing"
)

// runOps is the total number of operations a RunResult accounts for: one
// per line-resolving probe plus the bulk same-line accesses.
func runOps(rr *RunResult) uint64 {
	n := rr.Bulk
	for _, lines := range rr.Lines {
		n += lines
	}
	return n
}

// TestAccessRunMatchesPerOp drives two identical hierarchies with the same
// randomized access program — one through AccessRun line-run batches, one
// through per-op Access calls — and requires identical statistics and
// cache state. Strides cover sub-line power-of-two (the kernels' element
// sizes), non-power-of-two, line-sized and multi-line cases; run lengths
// cross line boundaries at every phase.
func TestAccessRunMatchesPerOp(t *testing.T) {
	strides := []uint64{1, 3, 4, 5, 8, 12, 16, 24, 63, 64, 65, 72, 128, 200}
	rng := rand.New(rand.NewSource(42))

	batch, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	perOp, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var rr RunResult
	var ops uint64
	var perOpSources [NumSources]uint64
	for trial := 0; trial < 3000; trial++ {
		base := uint64(rng.Intn(1 << 24))
		stride := strides[rng.Intn(len(strides))]
		n := uint64(1 + rng.Intn(40))
		write := rng.Intn(3) == 0

		batch.AccessRun(base, stride, n, write, &rr)
		addr := base
		for i := uint64(0); i < n; i++ {
			res := perOp.Access(addr, 8, write)
			perOpSources[res.Source]++
			addr += stride
		}
		ops += n
	}

	if got := runOps(&rr); got != ops {
		t.Fatalf("RunResult accounts for %d ops, issued %d", got, ops)
	}
	// The per-op path cannot distinguish a line-resolving L1 hit from a
	// same-line MRU hit, but the total per-source op counts must agree.
	if batchL1 := rr.Lines[SrcL1] + rr.Bulk; batchL1 != perOpSources[SrcL1] {
		t.Errorf("L1-served ops: batch %d (lines %d + bulk %d), per-op %d",
			batchL1, rr.Lines[SrcL1], rr.Bulk, perOpSources[SrcL1])
	}
	for s := SrcL2; s <= SrcDRAM; s++ {
		if rr.Lines[s] != perOpSources[s] {
			t.Errorf("%v-served ops: batch %d, per-op %d", s, rr.Lines[s], perOpSources[s])
		}
	}
	for i := 0; i < batch.Levels(); i++ {
		if b, p := batch.LevelStats(i), perOp.LevelStats(i); b != p {
			t.Errorf("level %d stats: batch %+v, per-op %+v", i, b, p)
		}
	}
	if b, p := batch.DRAMAccesses(), perOp.DRAMAccesses(); b != p {
		t.Errorf("DRAM accesses: batch %d, per-op %d", b, p)
	}
	// Replacement state must match exactly, not just counters: a sweep over
	// the whole address range served from the same level on both proves the
	// resident line sets are identical.
	for lv := 0; lv < batch.Levels(); lv++ {
		for line := uint64(0); line < 1<<24; line += 64 * 97 {
			if b, p := batch.Contains(lv, line), perOp.Contains(lv, line); b != p {
				t.Fatalf("level %d line %#x: batch contains=%v, per-op contains=%v", lv, line, b, p)
			}
		}
	}
}

// TestAccessRunHeadOnMRULine pins the run-head case: a run starting on the
// line the previous access left as L1 MRU must charge its same-line prefix
// as bulk hits, exactly like per-op issue would hit the MRU shortcut.
func TestAccessRunHeadOnMRULine(t *testing.T) {
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0x1000, 8, false) // leaves line 0x1000 as the L1 MRU line

	var rr RunResult
	h.AccessRun(0x1008, 8, 7, false, &rr) // the remaining 7 words of the line
	if rr.Bulk != 7 || rr.Lines != ([NumSources]uint64{}) {
		t.Fatalf("same-line run head: got bulk=%d lines=%v, want bulk=7 lines={}", rr.Bulk, rr.Lines)
	}

	rr = RunResult{}
	h.AccessRun(0x1008, 8, 16, false, &rr) // 7 on the MRU line, 1 crossing, 8 bulk
	if rr.Bulk != 14 || runOps(&rr) != 16 {
		t.Fatalf("crossing run: got bulk=%d ops=%d, want bulk=14 ops=16", rr.Bulk, runOps(&rr))
	}
}
