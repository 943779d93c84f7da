package hpcg

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/memhier"
	"repro/internal/objects"
	"repro/internal/pebs"
	"repro/internal/prog"
	"repro/internal/trace"
)

type rig struct {
	core *cpu.Core
	bin  *prog.Binary
	as   *prog.AddressSpace
	mon  *extrae.Monitor
}

func newRig(t *testing.T) *rig {
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
	if err := SetupBinary(bin); err != nil {
		t.Fatal(err)
	}
	as := prog.NewAddressSpace(0x2adf00000000)
	cfg := extrae.DefaultConfig()
	cfg.MuxQuantumNs = 0
	cfg.PEBS.Events = pebs.SampleLoads | pebs.SampleStores
	cfg.PEBS.Period = 500
	cfg.PEBS.LatencyThreshold = 0
	mon, err := extrae.New(cfg, core, bin, as)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{core: core, bin: bin, as: as, mon: mon}
}

func smallParams() Params {
	return Params{NX: 8, NY: 8, NZ: 8, MGLevels: 2, MaxIters: 3}
}

func TestGeometry(t *testing.T) {
	g := Geometry{NX: 4, NY: 5, NZ: 6}
	if g.Rows() != 120 {
		t.Errorf("Rows = %d", g.Rows())
	}
	if err := (Geometry{NX: 0, NY: 1, NZ: 1}).Validate(); err == nil {
		t.Error("zero dimension accepted")
	}
	c, err := (Geometry{NX: 8, NY: 8, NZ: 8}).Coarsen()
	if err != nil || c.NX != 4 {
		t.Errorf("Coarsen = %+v, %v", c, err)
	}
	if _, err := (Geometry{NX: 7, NY: 8, NZ: 8}).Coarsen(); err == nil {
		t.Error("odd coarsening accepted")
	}
}

func TestNeighborCounts(t *testing.T) {
	g := Geometry{NX: 4, NY: 4, NZ: 4}
	count := func(ix, iy, iz int) int {
		n := 0
		g.forEachNeighbor(ix, iy, iz, func(int) { n++ })
		return n
	}
	if got := count(1, 1, 1); got != 27 {
		t.Errorf("interior neighbors = %d, want 27", got)
	}
	if got := count(0, 0, 0); got != 8 {
		t.Errorf("corner neighbors = %d, want 8", got)
	}
	if got := count(0, 1, 1); got != 18 {
		t.Errorf("face neighbors = %d, want 18", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := smallParams().Validate(); err != nil {
		t.Errorf("small params rejected: %v", err)
	}
	bad := []Params{
		{NX: 0, NY: 8, NZ: 8, MGLevels: 1, MaxIters: 1},
		{NX: 8, NY: 8, NZ: 8, MGLevels: 0, MaxIters: 1},
		{NX: 8, NY: 8, NZ: 8, MGLevels: 5, MaxIters: 1}, // 8/16 not integral
		{NX: 8, NY: 8, NZ: 8, MGLevels: 1, MaxIters: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if err := (Params{NX: 32, NY: 32, NZ: 32, MGLevels: 4, MaxIters: 10}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestGenerateAllocationLayout(t *testing.T) {
	r := newRig(t)
	p, err := Generate(smallParams(), r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	reg := r.mon.Registry()
	var matrixGroup, mapGroup *objects.Object
	for _, o := range reg.Objects() {
		switch o.Name {
		case "124_GenerateProblem_ref.cpp":
			matrixGroup = o
		case "205_GenerateProblem_ref.cpp":
			mapGroup = o
		}
	}
	if matrixGroup == nil || mapGroup == nil {
		t.Fatal("allocation groups missing")
	}
	// Size ratio ~7:1 (540 B rows vs 80 B map nodes, coarse levels add a
	// little to the matrix side).
	ratio := float64(matrixGroup.Bytes) / float64(mapGroup.Bytes)
	if ratio < 5.5 || ratio > 9 {
		t.Errorf("group size ratio = %.2f, want ~6.75-7.7", ratio)
	}
	// The matrix group occupies lower addresses than the vectors.
	if matrixGroup.Range.Lo >= p.B.Addr {
		t.Error("matrix group not below vectors in address space")
	}
	// Fine level has 512 rows; both groups absorbed one member per fine row
	// (matrix group additionally holds the coarse level).
	if mapGroup.Members != 512 {
		t.Errorf("map group members = %d, want 512", mapGroup.Members)
	}
	if matrixGroup.Members != 512+64 {
		t.Errorf("matrix group members = %d, want 576", matrixGroup.Members)
	}
}

func TestSpMVMatchesDirectComputation(t *testing.T) {
	r := newRig(t)
	p, err := Generate(smallParams(), r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	lv := p.Fine
	x, _ := p.newVector("tx", lv.NRows)
	y, _ := p.newVector("ty", lv.NRows)
	for i := range x.Data {
		x.Data[i] = float64(i%10) * 0.25
	}
	p.SpMV(lv, x, y)
	for i := 0; i < lv.NRows; i++ {
		var want float64
		for j := 0; j < int(lv.NonzerosInRow[i]); j++ {
			want += lv.Vals[i][j] * x.Data[lv.Cols[i][j]]
		}
		if math.Abs(y.Data[i]-want) > 1e-12 {
			t.Fatalf("SpMV row %d = %g, want %g", i, y.Data[i], want)
		}
	}
	// A * ones: interior rows sum to 26 - 26 = 0 (diagonally balanced).
	x.Fill(1)
	p.SpMV(lv, x, y)
	interior := lv.Geom.Index(3, 3, 3)
	if math.Abs(y.Data[interior]) > 1e-12 {
		t.Errorf("interior row of A*1 = %g, want 0", y.Data[interior])
	}
	corner := lv.Geom.Index(0, 0, 0)
	if math.Abs(y.Data[corner]-19) > 1e-12 {
		t.Errorf("corner row of A*1 = %g, want 19 (26 - 7)", y.Data[corner])
	}
}

func TestSYMGSReducesResidual(t *testing.T) {
	r := newRig(t)
	p, err := Generate(smallParams(), r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	lv := p.Fine
	x, _ := p.newVector("sx", lv.NRows)
	ax, _ := p.newVector("sax", lv.NRows)
	resNorm := func() float64 {
		p.SpMV(lv, x, ax)
		var s float64
		for i := range ax.Data {
			d := p.B.Data[i] - ax.Data[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	x.Fill(0)
	before := resNorm()
	p.SYMGS(lv, p.B, x)
	after := resNorm()
	if after >= before {
		t.Errorf("SYMGS did not reduce residual: %g -> %g", before, after)
	}
	p.SYMGS(lv, p.B, x)
	after2 := resNorm()
	if after2 >= after {
		t.Errorf("second SYMGS did not reduce residual: %g -> %g", after, after2)
	}
}

func TestDotAndWAXPBY(t *testing.T) {
	r := newRig(t)
	p, err := Generate(smallParams(), r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Fine.NRows
	a, _ := p.newVector("da", n)
	b, _ := p.newVector("db", n)
	w, _ := p.newVector("dw", n)
	for i := 0; i < n; i++ {
		a.Data[i] = 2
		b.Data[i] = 3
	}
	if got := p.Dot(a, b); math.Abs(got-float64(6*n)) > 1e-9 {
		t.Errorf("Dot = %g, want %d", got, 6*n)
	}
	p.WAXPBY(2, a, -1, b, w)
	for i := 0; i < n; i++ {
		if w.Data[i] != 1 {
			t.Fatalf("WAXPBY[%d] = %g, want 1", i, w.Data[i])
		}
	}
}

// runCG steps a fresh CGRun until the solve finishes.
func runCG(p *Problem) (*CGResult, error) {
	c, err := p.NewCGRun()
	if err != nil {
		return nil, err
	}
	for {
		done, err := c.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return c.Result(), nil
		}
	}
}

func TestCGConverges(t *testing.T) {
	r := newRig(t)
	params := Params{NX: 16, NY: 16, NZ: 16, MGLevels: 3, MaxIters: 15, Tolerance: 1e-8}
	p, err := Generate(params, r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCG(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("CG did not converge in %d iterations (residuals %v)",
			res.Iterations, res.Residuals)
	}
	// Residuals strictly decreasing for this SPD system with MG.
	for i := 1; i < len(res.Residuals); i++ {
		if res.Residuals[i] >= res.Residuals[i-1] {
			t.Errorf("residual increased at iter %d: %g -> %g",
				i, res.Residuals[i-1], res.Residuals[i])
		}
	}
	if res.FinalError > 1e-6 {
		t.Errorf("final error vs exact solution = %g", res.FinalError)
	}
}

func TestNoStoresInMatrixRegion(t *testing.T) {
	// The paper's observation: no stores in the lower (matrix) part of the
	// address space during the execution phase — the matrix is written only
	// during setup.
	r := newRig(t)
	p, err := Generate(smallParams(), r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	r.mon.Start()
	if _, err := runCG(p); err != nil {
		t.Fatal(err)
	}
	r.mon.Stop()
	reg := r.mon.Registry()
	for _, o := range reg.Objects() {
		if o.Name == "124_GenerateProblem_ref.cpp" {
			if o.Stores != 0 {
				t.Errorf("matrix group sampled %d stores, want 0", o.Stores)
			}
			if o.Loads == 0 {
				t.Error("matrix group sampled no loads")
			}
		}
		if o.Name == "cg_p" && o.Refs > 0 && o.Stores == 0 {
			t.Error("vector cg_p should see stores")
		}
	}
}

func TestIterationRegionsEmitted(t *testing.T) {
	r := newRig(t)
	p, err := Generate(smallParams(), r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	r.mon.Start()
	res, err := runCG(p)
	if err != nil {
		t.Fatal(err)
	}
	r.mon.Stop()
	var enters, exits int
	for _, rec := range r.mon.Records() {
		if v, ok := rec.Get(trace.TypeRegion); ok {
			if v == int64(p.RegionIteration) {
				enters++
			}
		}
	}
	_ = exits
	if enters != res.Iterations {
		t.Errorf("iteration region enters = %d, want %d", enters, res.Iterations)
	}
	// Samples resolve overwhelmingly to known objects (grouping works).
	if rate := r.mon.Registry().ResolutionRate(); rate < 0.95 {
		t.Errorf("resolution rate = %.3f, want > 0.95 with grouping", rate)
	}
}

func TestSweepAddressOrder(t *testing.T) {
	// Within one SYMGS, the forward sweep's store addresses ascend and the
	// backward sweep's descend.
	r := newRig(t)
	p, err := Generate(smallParams(), r.core, r.mon, r.bin)
	if err != nil {
		t.Fatal(err)
	}
	var fwd, bwd []uint64
	fwdIP := p.ips.symgsFwdStore
	bwdIP := p.ips.symgsBwdStore
	r.core.SetMemHook(func(op cpu.MemOp) {
		if !op.Store {
			return
		}
		switch op.IP {
		case fwdIP:
			fwd = append(fwd, op.Addr)
		case bwdIP:
			bwd = append(bwd, op.Addr)
		}
	})
	x, _ := p.newVector("swx", p.Fine.NRows)
	p.SYMGS(p.Fine, p.B, x)
	if len(fwd) != p.Fine.NRows || len(bwd) != p.Fine.NRows {
		t.Fatalf("sweep stores = %d/%d, want %d each", len(fwd), len(bwd), p.Fine.NRows)
	}
	for i := 1; i < len(fwd); i++ {
		if fwd[i] <= fwd[i-1] {
			t.Fatal("forward sweep addresses not ascending")
		}
		if bwd[i] >= bwd[i-1] {
			t.Fatal("backward sweep addresses not descending")
		}
	}
}
