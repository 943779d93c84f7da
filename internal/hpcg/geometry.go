// Package hpcg implements the High Performance Conjugate Gradient benchmark
// (Dongarra, Heroux, Luszczek) as the paper's evaluation workload: a
// 27-point stencil sparse linear system solved by a conjugate-gradient
// method preconditioned with a multigrid V-cycle whose smoother is a
// symmetric Gauss–Seidel (forward sweep then backward sweep).
//
// The implementation performs the real floating-point computation on real
// Go slices while *simultaneously* issuing every element access as a
// simulated memory instruction on a cpu.Core, so the monitoring stack
// observes exactly the access pattern the algorithm produces: the forward
// and backward address sweeps, the read-only matrix region and the
// written vector region of the paper's Figure 1.
//
// Problem generation follows the structure the paper calls out: the matrix
// row storage is created through many consecutive small allocations
// (hundreds of bytes each, below Extrae's tracking threshold) plus one
// map-node allocation per row — the two allocation populations the paper
// had to wrap into groups "124_GenerateProblem_ref.cpp" (617 MB at 104³)
// and "205_GenerateProblem_ref.cpp" (89 MB).
package hpcg

import "fmt"

// Geometry describes the local problem box.
type Geometry struct {
	NX, NY, NZ int
}

// Rows returns the number of matrix rows (grid points).
func (g Geometry) Rows() int { return g.NX * g.NY * g.NZ }

// Validate checks the box dimensions.
func (g Geometry) Validate() error {
	if g.NX <= 0 || g.NY <= 0 || g.NZ <= 0 {
		return fmt.Errorf("hpcg: dimensions must be positive, got %dx%dx%d", g.NX, g.NY, g.NZ)
	}
	return nil
}

// Coarsen halves each dimension (HPCG requires divisibility by 2).
func (g Geometry) Coarsen() (Geometry, error) {
	if g.NX%2 != 0 || g.NY%2 != 0 || g.NZ%2 != 0 {
		return Geometry{}, fmt.Errorf("hpcg: geometry %dx%dx%d not divisible by 2", g.NX, g.NY, g.NZ)
	}
	return Geometry{NX: g.NX / 2, NY: g.NY / 2, NZ: g.NZ / 2}, nil
}

// Index converts grid coordinates to a row index.
func (g Geometry) Index(ix, iy, iz int) int {
	return iz*g.NY*g.NX + iy*g.NX + ix
}

// MaxNonzerosPerRow is the 27-point stencil width.
const MaxNonzerosPerRow = 27

// forEachNeighbor visits the stencil neighbours of (ix, iy, iz) inside the
// box, including the point itself, in the canonical z-y-x order HPCG uses
// (which yields ascending column indices).
func (g Geometry) forEachNeighbor(ix, iy, iz int, fn func(col int)) {
	for dz := -1; dz <= 1; dz++ {
		z := iz + dz
		if z < 0 || z >= g.NZ {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			y := iy + dy
			if y < 0 || y >= g.NY {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				x := ix + dx
				if x < 0 || x >= g.NX {
					continue
				}
				fn(g.Index(x, y, z))
			}
		}
	}
}
