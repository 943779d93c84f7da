package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelWeights(t *testing.T) {
	if w := Gaussian.weight(0); math.Abs(w-1) > 1e-12 {
		t.Errorf("gaussian(0) = %g, want 1", w)
	}
	if w := Epanechnikov.weight(0); math.Abs(w-0.75) > 1e-12 {
		t.Errorf("epanechnikov(0) = %g, want 0.75", w)
	}
	if w := Epanechnikov.weight(1.5); w != 0 {
		t.Errorf("epanechnikov(1.5) = %g, want 0 (compact support)", w)
	}
	if w := Uniform.weight(0.5); w != 0.5 {
		t.Errorf("uniform(0.5) = %g, want 0.5", w)
	}
	if w := Uniform.weight(2); w != 0 {
		t.Errorf("uniform(2) = %g, want 0", w)
	}
	for _, k := range []Kernel{Gaussian, Epanechnikov, Uniform} {
		if k.String() == "unknown" {
			t.Errorf("kernel %d has no name", k)
		}
		// Symmetry.
		if k.weight(0.3) != k.weight(-0.3) {
			t.Errorf("%v kernel not symmetric", k)
		}
	}
}

func TestSmootherRecoversLinear(t *testing.T) {
	// Kernel regression of a noiseless linear function should reproduce it
	// away from the edges; with boundary reflection it is good everywhere.
	n := 400
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n-1)
		ys[i] = 2*xs[i] + 1
	}
	grid := UniformGrid(0, 1, 51)
	sm := Smoother{Bandwidth: 0.03, Lo: 0, Hi: 1}
	fit, err := sm.Fit(xs, ys, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grid {
		want := 2*g + 1
		if math.Abs(fit[i]-want) > 0.05 {
			t.Errorf("fit(%.2f) = %g, want %g", g, fit[i], want)
		}
	}
}

// TestSmootherGaussianFarGrid pins the windowed Fit's behaviour for grid
// points farther than the 8-bandwidth support from every sample: the
// Gaussian (unbounded) must still return a finite value — the nearest
// sample's — never NaN, because folding feeds the result into Isotonic
// and Derivative unfiltered.
func TestSmootherGaussianFarGrid(t *testing.T) {
	xs := []float64{0.49, 0.50, 0.51}
	ys := []float64{3, 3, 3}
	grid := UniformGrid(0, 1, 11) // points up to ~25 bandwidths away
	fit, err := Smoother{Bandwidth: 0.02}.Fit(xs, ys, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grid {
		if math.IsNaN(fit[i]) {
			t.Fatalf("fit(%.2f) is NaN", g)
		}
		if math.Abs(fit[i]-3) > 1e-9 {
			t.Errorf("fit(%.2f) = %g, want 3 (nearest-sample limit)", g, fit[i])
		}
	}
}

func TestSmootherErrors(t *testing.T) {
	var sm Smoother
	if _, err := sm.Fit(nil, nil, UniformGrid(0, 1, 3)); err != ErrNoSamples {
		t.Errorf("no samples: err = %v", err)
	}
	if _, err := sm.Fit([]float64{1}, []float64{1, 2}, UniformGrid(0, 1, 3)); err != ErrLengths {
		t.Errorf("length mismatch: err = %v", err)
	}
	if _, err := sm.Fit([]float64{1}, []float64{1}, []float64{0}); err != ErrBadGrid {
		t.Errorf("bad grid: err = %v", err)
	}
	sm.Bandwidth = -1
	if _, err := sm.Fit([]float64{1, 2}, []float64{1, 2}, UniformGrid(0, 1, 3)); err != ErrBadBandwidth {
		t.Errorf("negative bandwidth: err = %v", err)
	}
}

func TestSmootherDefaultBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = 5.0
	}
	sm := Smoother{} // bandwidth derived via Silverman
	fit, err := sm.Fit(xs, ys, UniformGrid(0, 1, 11))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fit {
		if math.Abs(v-5) > 1e-9 {
			t.Errorf("constant signal fit = %g, want 5", v)
		}
	}
}

func TestUniformGrid(t *testing.T) {
	g := UniformGrid(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("grid[%d] = %g, want %g", i, g[i], want[i])
		}
	}
	if g2 := UniformGrid(0, 1, 1); len(g2) != 2 {
		t.Errorf("n<2 clamps to 2, got len %d", len(g2))
	}
}

func TestDerivative(t *testing.T) {
	xs := UniformGrid(0, 1, 101)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	d, err := Derivative(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(xs)-1; i++ {
		want := 2 * xs[i]
		if math.Abs(d[i]-want) > 1e-6 {
			t.Errorf("d(%.2f) = %g, want %g", xs[i], d[i], want)
		}
	}
	if _, err := Derivative(xs[:1], ys[:1]); err != ErrBadGrid {
		t.Errorf("short input err = %v", err)
	}
	if _, err := Derivative(xs, ys[:2]); err != ErrLengths {
		t.Errorf("length mismatch err = %v", err)
	}
}

func TestIsotonic(t *testing.T) {
	in := []float64{1, 3, 2, 4, 0, 6}
	out := Isotonic(in)
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("not monotone: %v", out)
		}
	}
	// Already monotone input passes through unchanged.
	mono := []float64{0, 1, 2, 3}
	got := Isotonic(mono)
	for i := range mono {
		if got[i] != mono[i] {
			t.Fatalf("monotone input changed: %v", got)
		}
	}
	// PAVA preserves the mean.
	if math.Abs(Mean(out)-Mean(in)) > 1e-12 {
		t.Errorf("mean changed: %g vs %g", Mean(out), Mean(in))
	}
}

func TestPropertyIsotonicMonotone(t *testing.T) {
	f := func(ys []float64) bool {
		for i, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				ys[i] = 0
			}
		}
		out := Isotonic(ys)
		if len(out) != len(ys) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	ys := []float64{-1, 0.5, 2}
	Clamp(ys, 0, 1)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if ys[i] != want[i] {
			t.Errorf("Clamp[%d] = %g, want %g", i, ys[i], want[i])
		}
	}
}

func TestMeanVarianceQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Errorf("Mean = %g", m)
	}
	if v := Variance(xs); math.Abs(v-2.5) > 1e-12 {
		t.Errorf("Variance = %g, want 2.5", v)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %g", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %g", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %g, want 2", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate Mean/Variance")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2) > 1e-12 || math.Abs(b-1) > 1e-12 {
		t.Errorf("fit = %g x + %g, want 2x+1", a, b)
	}
	if _, _, err := LinearFit(xs[:1], ys[:1]); err != ErrNoSamples {
		t.Errorf("short input err = %v", err)
	}
	if _, _, err := LinearFit(xs, ys[:2]); err != ErrLengths {
		t.Errorf("mismatch err = %v", err)
	}
	// Vertical degenerate case: all x equal.
	a, b, err = LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if err != nil || a != 0 || b != 2 {
		t.Errorf("degenerate fit = %g, %g, %v", a, b, err)
	}
}

// fitRef is a frozen copy of the per-vector regression Fit performed before
// FitMany existed: its own sort of (x, y) pairs, two binary searches per grid
// point and one weight evaluation per (grid point, sample) pair. FitMany
// must reproduce it bit for bit.
func fitRef(s Smoother, xs, ys, grid []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrNoSamples
	}
	if len(xs) != len(ys) {
		return nil, ErrLengths
	}
	if len(grid) < 2 {
		return nil, ErrBadGrid
	}
	h := s.Bandwidth
	if h == 0 {
		h = silverman(xs)
	}
	if h <= 0 {
		return nil, ErrBadBandwidth
	}
	reflect := s.Hi > s.Lo
	n := len(xs)
	if reflect {
		n *= 3
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, 0, n)
	for j, x := range xs {
		pts = append(pts, pt{x, ys[j]})
		if reflect {
			pts = append(pts, pt{2*s.Lo - x, ys[j]}, pt{2*s.Hi - x, ys[j]})
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].x < pts[b].x })
	cut := s.Kernel.support() * h

	out := make([]float64, len(grid))
	for i, g := range grid {
		lo := sort.Search(len(pts), func(j int) bool { return pts[j].x >= g-cut })
		hi := sort.Search(len(pts), func(j int) bool { return pts[j].x > g+cut })
		var num, den float64
		for j := lo; j < hi; j++ {
			w := s.Kernel.weight((g - pts[j].x) / h)
			num += w * pts[j].y
			den += w
		}
		if den == 0 {
			if s.Kernel == Gaussian {
				j := lo
				if j >= len(pts) || (j > 0 && g-pts[j-1].x <= pts[j].x-g) {
					j--
				}
				out[i] = pts[j].y
				continue
			}
			out[i] = math.NaN()
			continue
		}
		out[i] = num / den
	}
	return out, nil
}

// randomCloud draws n sample positions: half on a coarse lattice that
// includes the reflection edges 0 and 1 exactly (so positions tie), the
// rest continuous, all confined to [lo, hi] of the unit interval.
func randomCloud(rng *rand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for j := range xs {
		if rng.Intn(2) == 0 {
			xs[j] = lo + (hi-lo)*float64(rng.Intn(21))/20
		} else {
			xs[j] = lo + (hi-lo)*rng.Float64()
		}
	}
	return xs
}

// TestFitManyMatchesReference is the differential test of the shared-cloud
// regression: every curve FitMany returns must equal, bit for bit, a
// separate reference regression of its y vector. The clouds carry tied
// positions with different y values, samples exactly on both reflection
// edges, Silverman bandwidths, all three kernels, grid points outside every
// window (the Gaussian's nearest-sample fallback and the compact kernels'
// NaN) and non-ascending grids.
func TestFitManyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20170814))
	shuffled := UniformGrid(0, 1, 60)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	grids := map[string][]float64{
		"ascending":  UniformGrid(0, 1, 101),
		"shuffled":   shuffled,
		"descending": UniformGrid(1, -0.5, 40),
		"sawtooth":   {0, 0.5, 0.25, 0.25, 1, 0.75, -0.2, 1.3},
	}
	bandwidths := []float64{0, 0.002, 0.02, 0.3}
	for trial := 0; trial < 6; trial++ {
		n := 1 + rng.Intn(300)
		// Alternate full-range clouds with clouds bunched mid-interval, whose
		// grid points near the edges lie outside every window.
		lo, hi := 0.0, 1.0
		if trial%2 == 1 {
			lo, hi = 0.45, 0.55
		}
		xs := randomCloud(rng, n, lo, hi)
		yss := make([][]float64, 1+rng.Intn(9))
		for c := range yss {
			yss[c] = make([]float64, n)
			for j := range yss[c] {
				yss[c][j] = rng.NormFloat64()
			}
		}
		for _, k := range []Kernel{Gaussian, Epanechnikov, Uniform} {
			for _, bw := range bandwidths {
				for _, reflect := range []bool{false, true} {
					sm := Smoother{Kernel: k, Bandwidth: bw}
					if reflect {
						sm.Hi = 1
					}
					for name, grid := range grids {
						fits, err := sm.FitMany(xs, yss, grid)
						if err != nil {
							t.Fatalf("%+v %s: %v", sm, name, err)
						}
						for c, ys := range yss {
							want, err := fitRef(sm, xs, ys, grid)
							if err != nil {
								t.Fatal(err)
							}
							one, err := sm.Fit(xs, ys, grid)
							if err != nil {
								t.Fatal(err)
							}
							for i := range grid {
								if math.Float64bits(fits[c][i]) != math.Float64bits(want[i]) ||
									math.Float64bits(one[i]) != math.Float64bits(want[i]) {
									t.Fatalf("trial %d %+v grid %s curve %d: FitMany(%g) = %v, Fit %v, reference %v",
										trial, sm, name, c, grid[i], fits[c][i], one[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCloudSortMatchesSortSlice pins the permutation FitMany's cloud sort
// makes on tied positions: slices.SortFunc with cmpCloudPoint must order
// every point, ties included, exactly as sort.Slice comparing positions
// does, or tied samples would be summed in a different order and change
// result bits. The inputs are tie-heavy (few distinct positions, ±0 among
// them) and span the insertion-sort, pivot-selection and
// pattern-breaking sizes of pdqsort.
func TestCloudSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5000)
		if trial%4 == 0 {
			n = 1 + rng.Intn(64)
		}
		distinct := 1 + rng.Intn(1+n/(1+rng.Intn(50)))
		pts := make([]cloudPoint, n)
		for j := range pts {
			x := float64(rng.Intn(distinct)) / float64(distinct)
			if x == 0 && rng.Intn(2) == 0 {
				x = math.Copysign(0, -1)
			}
			pts[j] = cloudPoint{x, j}
		}
		switch trial % 3 {
		case 1: // ascending runs, as a mostly-sorted cloud gives
			slices.SortStableFunc(pts[:n/2], cmpCloudPoint)
		case 2: // descending, as reflected points come
			slices.SortStableFunc(pts, cmpCloudPoint)
			slices.Reverse(pts)
		}
		want := slices.Clone(pts)
		sort.Slice(want, func(a, b int) bool { return want[a].x < want[b].x })
		slices.SortFunc(pts, cmpCloudPoint)
		for j := range pts {
			if pts[j] != want[j] {
				t.Fatalf("trial %d (n=%d, %d distinct): position %d holds sample %d, sort.Slice put %d there",
					trial, n, distinct, j, pts[j].src, want[j].src)
			}
		}
	}
}

// TestFitManyErrors pins FitMany's input validation: every y vector must
// match xs in length.
func TestFitManyErrors(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3}
	grid := UniformGrid(0, 1, 5)
	if _, err := (Smoother{}).FitMany(xs, [][]float64{{1, 2, 3}, {1, 2}}, grid); err != ErrLengths {
		t.Errorf("short second vector: err = %v", err)
	}
	fits, err := (Smoother{}).FitMany(xs, nil, grid)
	if err != nil || len(fits) != 0 {
		t.Errorf("no vectors: %v, %v", fits, err)
	}
}
