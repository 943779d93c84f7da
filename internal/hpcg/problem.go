package hpcg

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/extrae"
	"repro/internal/prog"
)

// Vector is a dense vector with a simulated base address: element i of the
// real data lives at Addr + 8*i in the simulated address space.
type Vector struct {
	Name string
	Data []float64
	Addr uint64
}

// ElemAddr returns the simulated address of element i.
func (v *Vector) ElemAddr(i int) uint64 { return v.Addr + uint64(i)*8 }

// Fill sets every element to x.
func (v *Vector) Fill(x float64) {
	for i := range v.Data {
		v.Data[i] = x
	}
}

// Level is one multigrid level: the sparse matrix in HPCG's row-wise
// storage plus the level's work vectors and the fine-to-coarse mapping.
type Level struct {
	Geom  Geometry
	NRows int

	// NonzerosInRow mirrors HPCG's per-row nonzero counts.
	NonzerosInRow []uint8
	// Cols and Vals are the per-row column indices and coefficients. Each
	// row was allocated separately (the paper's small allocations); the
	// simulated base addresses are in ColsAddr and ValsAddr.
	Cols     [][]int32
	Vals     [][]float64
	ColsAddr []uint64
	ValsAddr []uint64

	// F2C maps coarse rows to fine rows (nil on the coarsest level).
	F2C     []int32
	F2CAddr uint64

	// Work vectors used by the V-cycle on this level.
	R, X, Axf *Vector

	// Coarse points to the next (coarser) level, nil at the bottom.
	Coarse *Level

	// xOld is the host-side snapshot buffer the parallel block-Jacobi
	// SYMGS reads cross-block values from (no simulated address: the
	// snapshot is an artifact of race-free simulation, not of the
	// modelled program).
	xOld []float64
}

// codeIPs holds the pre-resolved instruction pointers for every simulated
// source line the kernels reference.
type codeIPs struct {
	symgsFwdVal, symgsFwdCol, symgsFwdX, symgsFwdStore  uint64
	symgsBwdVal, symgsBwdCol, symgsBwdX, symgsBwdStore  uint64
	spmvVal, spmvCol, spmvX, spmvStore                  uint64
	dotA, dotB                                          uint64
	waxpbyX, waxpbyY, waxpbyW                           uint64
	restrictF2C, restrictRf, restrictAxf, restrictStore uint64
	prolongF2C, prolongXc, prolongXf, prolongStore      uint64
	genRows, genMap, genVectors                         uint64
	mgFrame                                             uint64
}

// Problem is a generated HPCG instance bound to a monitored core.
type Problem struct {
	Params Params
	Fine   *Level
	B      *Vector // right-hand side
	X      *Vector // solution vector
	Xexact *Vector

	core *cpu.Core
	mon  *extrae.Monitor
	ips  codeIPs

	// Regions registered with the monitor.
	RegionIteration extrae.Region
	RegionSYMGS     extrae.Region
	RegionSPMV      extrae.Region
	RegionMG        extrae.Region
	RegionDot       extrae.Region
	RegionWAXPBY    extrae.Region
}

// Params configures problem generation and the CG run.
type Params struct {
	// NX, NY, NZ are the local box dimensions (the paper uses 104³; tests
	// use 16³ and experiments default to 32–64³ for simulator speed).
	NX, NY, NZ int
	// MGLevels is the number of multigrid levels including the finest
	// (HPCG uses 4). Dimensions must be divisible by 2^(MGLevels-1).
	MGLevels int
	// MaxIters bounds the CG iterations.
	MaxIters int
	// Tolerance stops CG when the relative residual drops below it
	// (0 runs exactly MaxIters iterations, like the benchmark's timed runs).
	Tolerance float64
	// DisableGrouping skips the allocation-group instrumentation,
	// reproducing the paper's preliminary analysis in which most PEBS
	// references could not be associated with a memory object because the
	// per-row allocations fell below the tracking threshold.
	DisableGrouping bool
}

// Validate checks the parameters.
func (p Params) Validate() error {
	g := Geometry{NX: p.NX, NY: p.NY, NZ: p.NZ}
	if err := g.Validate(); err != nil {
		return err
	}
	if p.MGLevels < 1 {
		return fmt.Errorf("hpcg: need at least one MG level")
	}
	for l := 1; l < p.MGLevels; l++ {
		var err error
		if g, err = g.Coarsen(); err != nil {
			return fmt.Errorf("hpcg: level %d: %w", l, err)
		}
	}
	if p.MaxIters < 1 {
		return fmt.Errorf("hpcg: MaxIters must be positive")
	}
	return nil
}

// SetupBinary registers the HPCG source structure (functions, files, line
// numbers) in the synthetic binary, mirroring the HPCG 3.0 reference code
// layout the paper refers to.
func SetupBinary(bin *prog.Binary) error {
	fns := []struct {
		name, file       string
		startLine, lines int
	}{
		{"main", "main.cpp", 1, 100},
		{"GenerateProblem_ref", "GenerateProblem_ref.cpp", 60, 160},
		{"ComputeSYMGS_ref", "ComputeSYMGS_ref.cpp", 38, 50},
		{"ComputeSPMV_ref", "ComputeSPMV_ref.cpp", 40, 30},
		{"ComputeMG_ref", "ComputeMG_ref.cpp", 30, 40},
		{"ComputeDotProduct_ref", "ComputeDotProduct_ref.cpp", 30, 20},
		{"ComputeWAXPBY_ref", "ComputeWAXPBY_ref.cpp", 30, 20},
		{"ComputeRestriction_ref", "ComputeRestriction_ref.cpp", 30, 20},
		{"ComputeProlongation_ref", "ComputeProlongation_ref.cpp", 30, 20},
	}
	for _, f := range fns {
		if _, err := bin.AddFunction(f.name, f.file, f.startLine, f.lines); err != nil {
			return err
		}
	}
	return nil
}

// resolveIPs fills the per-line IP table from the binary.
func resolveIPs(bin *prog.Binary) (codeIPs, error) {
	var ips codeIPs
	get := func(fn string, line int) (uint64, error) {
		f, ok := bin.Function(fn)
		if !ok {
			return 0, fmt.Errorf("hpcg: function %s not registered", fn)
		}
		return f.IPForLine(line)
	}
	var err error
	set := func(dst *uint64, fn string, line int) {
		if err != nil {
			return
		}
		*dst, err = get(fn, line)
	}
	// ComputeSYMGS_ref.cpp: forward sweep body ~lines 45-48, backward ~60-63.
	set(&ips.symgsFwdVal, "ComputeSYMGS_ref", 45)
	set(&ips.symgsFwdCol, "ComputeSYMGS_ref", 46)
	set(&ips.symgsFwdX, "ComputeSYMGS_ref", 47)
	set(&ips.symgsFwdStore, "ComputeSYMGS_ref", 48)
	set(&ips.symgsBwdVal, "ComputeSYMGS_ref", 60)
	set(&ips.symgsBwdCol, "ComputeSYMGS_ref", 61)
	set(&ips.symgsBwdX, "ComputeSYMGS_ref", 62)
	set(&ips.symgsBwdStore, "ComputeSYMGS_ref", 63)
	// ComputeSPMV_ref.cpp: loop body ~lines 55-58.
	set(&ips.spmvVal, "ComputeSPMV_ref", 55)
	set(&ips.spmvCol, "ComputeSPMV_ref", 56)
	set(&ips.spmvX, "ComputeSPMV_ref", 57)
	set(&ips.spmvStore, "ComputeSPMV_ref", 58)
	set(&ips.dotA, "ComputeDotProduct_ref", 38)
	set(&ips.dotB, "ComputeDotProduct_ref", 39)
	set(&ips.waxpbyX, "ComputeWAXPBY_ref", 38)
	set(&ips.waxpbyY, "ComputeWAXPBY_ref", 39)
	set(&ips.waxpbyW, "ComputeWAXPBY_ref", 40)
	set(&ips.restrictF2C, "ComputeRestriction_ref", 37)
	set(&ips.restrictRf, "ComputeRestriction_ref", 38)
	set(&ips.restrictAxf, "ComputeRestriction_ref", 39)
	set(&ips.restrictStore, "ComputeRestriction_ref", 40)
	set(&ips.prolongF2C, "ComputeProlongation_ref", 37)
	set(&ips.prolongXc, "ComputeProlongation_ref", 38)
	set(&ips.prolongXf, "ComputeProlongation_ref", 39)
	set(&ips.prolongStore, "ComputeProlongation_ref", 40)
	// GenerateProblem_ref.cpp: row allocations at lines 108-110, the map
	// insertions at line 143, vector allocations at line 70.
	// ComputeMG_ref.cpp line 35: the coarse-grid recursion frame.
	set(&ips.mgFrame, "ComputeMG_ref", 35)
	set(&ips.genRows, "GenerateProblem_ref", 108)
	set(&ips.genMap, "GenerateProblem_ref", 143)
	set(&ips.genVectors, "GenerateProblem_ref", 70)
	return ips, err
}

// mapNodeBytes models a C++ std::map node for the globalToLocal map: key,
// value and red-black tree overhead. With 540 bytes of row storage per row
// (27 values × 8 B + 27 global indices × 8 B + 27 local indices × 4 B) the
// 80-byte node keeps the two allocation groups near the paper's 617:89 MB
// (≈ 7:1) ratio.
const mapNodeBytes = 80

// rowStorageBytes is the per-row matrix footprint (vals + global + local
// indices), matching HPCG's GenerateProblem allocations.
const rowStorageBytes = MaxNonzerosPerRow*8 + MaxNonzerosPerRow*8 + MaxNonzerosPerRow*4

// Generate builds the full problem: matrix hierarchy, vectors, and the
// allocation-group instrumentation. It must run before monitoring starts
// (the paper analyses only the execution phase, but the allocations made
// here must be known to the object registry).
func Generate(params Params, core *cpu.Core, mon *extrae.Monitor, bin *prog.Binary) (*Problem, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ips, err := resolveIPs(bin)
	if err != nil {
		return nil, err
	}
	p := &Problem{Params: params, core: core, mon: mon, ips: ips}
	p.RegionIteration = mon.RegisterRegion("CG_iteration")
	p.RegionSYMGS = mon.RegisterRegion("ComputeSYMGS_ref")
	p.RegionSPMV = mon.RegisterRegion("ComputeSPMV_ref")
	p.RegionMG = mon.RegisterRegion("ComputeMG_ref")
	p.RegionDot = mon.RegisterRegion("ComputeDotProduct_ref")
	p.RegionWAXPBY = mon.RegisterRegion("ComputeWAXPBY_ref")

	// Level hierarchy. The matrix rows of every level are allocated inside
	// the first group; the per-row map nodes inside the second. This is the
	// paper's manual wrapping: first-to-last address of each population.
	geom := Geometry{NX: params.NX, NY: params.NY, NZ: params.NZ}

	// Group 1: matrix row storage (the "124_GenerateProblem_ref.cpp" object).
	// With grouping disabled, the rows are ordinary small allocations that
	// fall below the tracking threshold — the paper's preliminary analysis.
	mon.PushFrame(ips.genRows)
	if !params.DisableGrouping {
		if err := mon.BeginAllocGroup("124_GenerateProblem_ref.cpp"); err != nil {
			return nil, err
		}
	}
	levels := make([]*Level, params.MGLevels)
	g := geom
	for l := 0; l < params.MGLevels; l++ {
		lv, err := p.generateMatrix(g)
		if err != nil {
			return nil, err
		}
		levels[l] = lv
		if l+1 < params.MGLevels {
			if g, err = g.Coarsen(); err != nil {
				return nil, err
			}
		}
	}
	if !params.DisableGrouping {
		if _, err := mon.EndAllocGroup(); err != nil {
			return nil, err
		}
	}
	mon.PopFrame()

	// Group 2: the globalToLocal map nodes (the "205_..." object). One node
	// per fine row, inserted through the []-operator as the paper notes.
	mon.PushFrame(ips.genMap)
	if !params.DisableGrouping {
		if err := mon.BeginAllocGroup("205_GenerateProblem_ref.cpp"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < levels[0].NRows; i++ {
		if _, err := mon.Alloc(mapNodeBytes); err != nil {
			return nil, err
		}
	}
	if !params.DisableGrouping {
		if _, err := mon.EndAllocGroup(); err != nil {
			return nil, err
		}
	}
	mon.PopFrame()

	// Link levels, allocate work vectors and fine-to-coarse maps.
	for l := 0; l < params.MGLevels; l++ {
		lv := levels[l]
		if l+1 < params.MGLevels {
			lv.Coarse = levels[l+1]
			if err := p.buildF2C(lv); err != nil {
				return nil, err
			}
		}
		if lv.R, err = p.newVector(fmt.Sprintf("mg%d_r", l), lv.NRows); err != nil {
			return nil, err
		}
		if lv.X, err = p.newVector(fmt.Sprintf("mg%d_x", l), lv.NRows); err != nil {
			return nil, err
		}
		if lv.Axf, err = p.newVector(fmt.Sprintf("mg%d_Axf", l), lv.NRows); err != nil {
			return nil, err
		}
	}
	p.Fine = levels[0]

	// Problem vectors, allocated individually (large, above threshold).
	n := p.Fine.NRows
	if p.B, err = p.newVector("b", n); err != nil {
		return nil, err
	}
	if p.X, err = p.newVector("x", n); err != nil {
		return nil, err
	}
	if p.Xexact, err = p.newVector("xexact", n); err != nil {
		return nil, err
	}
	// HPCG: xexact = 1, b = A * xexact computed directly (setup phase does
	// the arithmetic natively; only execution-phase accesses are simulated).
	p.Xexact.Fill(1)
	fine := p.Fine
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < int(fine.NonzerosInRow[i]); j++ {
			sum += fine.Vals[i][j] * p.Xexact.Data[fine.Cols[i][j]]
		}
		p.B.Data[i] = sum
	}
	return p, nil
}

// generateMatrix builds one level's matrix with per-row small allocations.
func (p *Problem) generateMatrix(g Geometry) (*Level, error) {
	n := g.Rows()
	lv := &Level{
		Geom:          g,
		NRows:         n,
		NonzerosInRow: make([]uint8, n),
		Cols:          make([][]int32, n),
		Vals:          make([][]float64, n),
		ColsAddr:      make([]uint64, n),
		ValsAddr:      make([]uint64, n),
	}
	for iz := 0; iz < g.NZ; iz++ {
		for iy := 0; iy < g.NY; iy++ {
			for ix := 0; ix < g.NX; ix++ {
				row := g.Index(ix, iy, iz)
				// One simulated allocation covering the row's values and
				// indices (HPCG performs three news per row at lines
				// 108-110; we coalesce them into one region of the same
				// total size to keep the address space identical).
				addr, err := p.mon.Alloc(rowStorageBytes)
				if err != nil {
					return nil, err
				}
				lv.ValsAddr[row] = addr
				lv.ColsAddr[row] = addr + MaxNonzerosPerRow*16 // after vals+global inds
				vals := make([]float64, 0, MaxNonzerosPerRow)
				cols := make([]int32, 0, MaxNonzerosPerRow)
				g.forEachNeighbor(ix, iy, iz, func(col int) {
					if col == row {
						vals = append(vals, 26)
					} else {
						vals = append(vals, -1)
					}
					cols = append(cols, int32(col))
				})
				lv.Vals[row] = vals
				lv.Cols[row] = cols
				lv.NonzerosInRow[row] = uint8(len(cols))
			}
		}
	}
	return lv, nil
}

// buildF2C computes the injection operator from lv to lv.Coarse.
func (p *Problem) buildF2C(lv *Level) error {
	cg := lv.Coarse.Geom
	f2c := make([]int32, cg.Rows())
	for iz := 0; iz < cg.NZ; iz++ {
		for iy := 0; iy < cg.NY; iy++ {
			for ix := 0; ix < cg.NX; ix++ {
				f2c[cg.Index(ix, iy, iz)] = int32(lv.Geom.Index(ix*2, iy*2, iz*2))
			}
		}
	}
	lv.F2C = f2c
	addr, err := p.mon.Alloc(uint64(len(f2c)) * 4)
	if err != nil {
		return err
	}
	lv.F2CAddr = addr
	return nil
}

// newVector allocates a named vector at the GenerateProblem vector site.
func (p *Problem) newVector(name string, n int) (*Vector, error) {
	p.mon.PushFrame(p.ips.genVectors)
	addr, err := p.mon.Alloc(uint64(n) * 8)
	p.mon.PopFrame()
	if err != nil {
		return nil, err
	}
	return &Vector{Name: name, Data: make([]float64, n), Addr: addr}, nil
}
