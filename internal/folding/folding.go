// Package folding implements the BSC Folding mechanism extended with the
// memory perspective, the analysis half of the paper. Folding exploits the
// repetitive structure of HPC codes: an instrumented region (say, one CG
// iteration) executes hundreds of times, each instance carrying only a
// handful of coarse-grained samples; projecting every sample onto the
// normalized time axis of a single synthetic instance produces a dense
// picture of the region's internal evolution without high-frequency
// sampling — the paper's low-overhead claim.
//
// Three folded views are produced, matching the three panels of Figure 1:
//
//   - performance: cumulative hardware-counter fractions regressed into
//     smooth curves (Kriging in the original tool, kernel regression here)
//     and differentiated into instantaneous rates (MIPS, misses/instr);
//   - memory: the sampled addresses scattered over normalized time, with
//     load/store, latency, data source and data-object identity;
//   - source code: the sampled instruction pointers over normalized time,
//     resolved to functions and lines.
package folding

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cpu"
	"repro/internal/memhier"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Sample is one monitoring sample inside a region instance, before folding.
type Sample struct {
	TimeNs   uint64
	Counters [cpu.NumCounters]uint64
	Addr     uint64
	Latency  uint64
	Source   memhier.DataSource
	Store    bool
	IP       uint64
	StackID  uint32
	Size     int
}

// Instance is one dynamic execution of the folded region.
type Instance struct {
	T0, T1  uint64 // entry and exit times (ns)
	C0, C1  [cpu.NumCounters]uint64
	Samples []Sample
}

// DurationNs returns the instance duration.
func (in *Instance) DurationNs() uint64 { return in.T1 - in.T0 }

// ExtractThread collects the instances of the given region id emitted by
// one (task, thread) of a chronological trace record stream (ids are
// 1-based, as in Paraver), attaching the samples that fall inside each
// instance. Records from other emitters are ignored, so each simulated
// thread of a Machine run folds independently: scanning a merged trace
// thread-blind would interleave region events from different threads (a
// foreign end event lands inside an open instance and truncates it at the
// wrong timestamp) and corrupt every folded curve.
//
// Regions nest (an HPCG iteration contains SYMGS/SPMV/MG sub-regions); the
// nesting depth of sub-regions opened inside the instance is tracked so
// only the matching end event closes an instance. End events are anonymous
// (value 0), so matching is LIFO, as in any well-nested stream: a depth-0
// end inside an instance closes it — extracting a nested region from
// inside an enclosing one (SYMGS inside CG_iteration) depends on this.
// Ends seen outside any instance (an enclosing region's end, or an
// unmatched end whose entry predates the trace) are ignored. Nested
// occurrences of the *same* region id are rejected.
func ExtractThread(records []trace.Record, region int64, task, thread int) ([]Instance, error) {
	if task <= 0 || thread <= 0 {
		return nil, fmt.Errorf("folding: task/thread must be 1-based, got %d/%d", task, thread)
	}
	return extract(records, region, task, thread)
}

// extract implements ExtractThread; task == 0 disables the emitter filter
// for a single-thread stream. The first pass delimits the instances and
// counts their samples; the second fills each instance's Samples, allocated
// at its exact size, from the records the instance spans.
func extract(records []trace.Record, region int64, task, thread int) ([]Instance, error) {
	var out []Instance
	var spans [][2]int // record indices of each instance's entry and exit
	var cur *Instance
	open, n := 0, 0 // entry record and sample count of the current instance
	depth := 0      // nested sub-regions opened inside the current instance
	for i := range records {
		rec := &records[i]
		if !emittedBy(rec, task, thread) {
			continue
		}
		if v, ok := rec.Get(trace.TypeRegion); ok {
			switch {
			case v == region:
				if cur != nil {
					return nil, fmt.Errorf("folding: nested instance of region %d at %d ns", region, rec.TimeNs)
				}
				cur = &Instance{T0: rec.TimeNs, C0: countersOf(rec)}
				open, n, depth = i, 0, 0
			case v > 0 && cur != nil:
				depth++
			case v == 0 && cur != nil:
				if depth > 0 {
					depth--
					continue
				}
				// LIFO: the innermost open region is the instance itself,
				// so a depth-0 end closes it. (Ends carry no region id; a
				// trace whose enclosing region ends mid-instance is not
				// well-nested and indistinguishable from this case.)
				cur.T1 = rec.TimeNs
				cur.C1 = countersOf(rec)
				cur.Samples = make([]Sample, 0, n)
				out = append(out, *cur)
				spans = append(spans, [2]int{open, i})
				cur = nil
			}
			// Region events outside any instance — enclosing opens, their
			// ends, and unmatched ends whose opens predate the trace — do
			// not affect extraction.
			continue
		}
		if cur != nil && rec.Has(trace.TypeSampleAddr) {
			n++
		}
	}
	for k, sp := range spans {
		in := &out[k]
		for i := sp[0] + 1; i < sp[1]; i++ {
			rec := &records[i]
			if !emittedBy(rec, task, thread) || rec.Has(trace.TypeRegion) {
				continue
			}
			if addr, ok := rec.Get(trace.TypeSampleAddr); ok {
				in.Samples = append(in.Samples, sampleOf(rec, addr))
			}
		}
	}
	return out, nil
}

// emittedBy reports whether rec comes from (task, thread); task == 0
// accepts every emitter.
func emittedBy(rec *trace.Record, task, thread int) bool {
	return task == 0 || (rec.Task == task && rec.Thread == thread)
}

// sampleOf decodes the sample record rec, whose sampled address is addr.
func sampleOf(rec *trace.Record, addr int64) Sample {
	s := Sample{TimeNs: rec.TimeNs, Addr: uint64(addr), Counters: countersOf(rec)}
	if v, ok := rec.Get(trace.TypeSampleLatency); ok {
		s.Latency = uint64(v)
	}
	if v, ok := rec.Get(trace.TypeSampleSource); ok {
		s.Source = memhier.DataSource(v)
	}
	if v, ok := rec.Get(trace.TypeSampleStore); ok {
		s.Store = v == 1
	}
	if v, ok := rec.Get(trace.TypeSampleIP); ok {
		s.IP = uint64(v)
	}
	if v, ok := rec.Get(trace.TypeSampleStack); ok {
		s.StackID = uint32(v)
	}
	if v, ok := rec.Get(trace.TypeSampleSize); ok {
		s.Size = int(v)
	}
	return s
}

func countersOf(rec *trace.Record) [cpu.NumCounters]uint64 {
	var c [cpu.NumCounters]uint64
	for i := cpu.CounterID(0); i < cpu.NumCounters; i++ {
		if v, ok := rec.Get(trace.TypeCounterBase + uint32(i)); ok {
			c[i] = uint64(v)
		}
	}
	return c
}

// Config parameterizes the folding computation.
type Config struct {
	// GridPoints is the resolution of the folded time axis (default 200).
	GridPoints int
	// Bandwidth is the kernel-regression bandwidth in normalized time
	// units (default 0.02; the ablation bench sweeps it).
	Bandwidth float64
	// Kernel selects the regression kernel (default Gaussian).
	Kernel stats.Kernel
	// OutlierFactor drops instances whose duration deviates from the
	// median by more than this factor (default 2; 0 keeps everything).
	// The original Folding similarly filters perturbed instances.
	OutlierFactor float64
	// PhaseTol is the relative tolerance of the phase detector applied to
	// the folded source-line signal (default 0.04).
	PhaseTol float64
	// MinPhaseWidth is the minimum phase width in normalized time; narrower
	// detections are merged (default 0.02).
	MinPhaseWidth float64
	// PhaseIP maps a sample to the instruction pointer used for phase
	// attribution. The default (nil) uses the sample's leaf IP; the session
	// layer substitutes the outermost instrumented call frame when one is
	// active, which is how the original tools attribute the multigrid
	// coarse-level work to ComputeMG_ref rather than to the smoother code
	// it shares with the fine level.
	PhaseIP func(Sample) uint64
	// FuncOf resolves an instruction pointer to a function name. When set,
	// the phase-sliver merging uses exact function identity; otherwise it
	// falls back to an IP-distance heuristic.
	FuncOf func(ip uint64) string
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig() Config {
	return Config{
		GridPoints:    200,
		Bandwidth:     0.02,
		Kernel:        stats.Gaussian,
		OutlierFactor: 2,
		PhaseTol:      0.04,
		MinPhaseWidth: 0.02,
	}
}

// MemPoint is one folded memory sample: a point of the Figure 1 middle
// panel.
type MemPoint struct {
	// Sigma is the normalized time within the synthetic instance, in [0,1).
	Sigma float64
	// Addr is the referenced address.
	Addr uint64
	// Store distinguishes the black (store) points from the others.
	Store   bool
	Latency uint64
	Source  memhier.DataSource
	// IP is the sampled instruction pointer; PhaseIP is the pointer used
	// for phase attribution (equal to IP unless Config.PhaseIP remaps it).
	IP      uint64
	PhaseIP uint64
	StackID uint32
	Size    int
}

// LinePoint is one folded source-code sample: a point of the top panel.
type LinePoint struct {
	Sigma float64
	IP    uint64
}

// Folded is the result of folding one region.
type Folded struct {
	// Region is the folded region id as found in the trace.
	Region int64
	// InstancesUsed and InstancesTotal count kept vs observed instances.
	InstancesUsed, InstancesTotal int
	// MeanDurationNs is the mean duration of the kept instances.
	MeanDurationNs float64
	// MeanTotals holds the mean per-instance counter increments.
	MeanTotals [cpu.NumCounters]float64
	// Grid is the normalized time axis shared by all curves.
	Grid []float64
	// Cumulative maps each counter to its folded cumulative-fraction curve
	// over Grid (0 at sigma=0 rising to 1 at sigma=1).
	Cumulative map[cpu.CounterID][]float64
	// Rates maps each counter to its instantaneous rate in events/second.
	Rates map[cpu.CounterID][]float64
	// Mem holds every folded memory sample, sorted by Sigma.
	Mem []MemPoint
	// Lines holds every folded source-code sample, sorted by Sigma.
	Lines []LinePoint
	// Phases is the detected phase structure (see mem.go).
	Phases []Phase
	cfg    Config
}

// MIPS returns the folded instruction rate in millions of instructions per
// second, the headline curve of Figure 1's bottom panel.
func (f *Folded) MIPS() []float64 {
	r := f.Rates[cpu.CtrInstructions]
	out := make([]float64, len(r))
	for i, v := range r {
		out[i] = v / 1e6
	}
	return out
}

// PerInstruction returns the folded ratio of counter c per instruction
// (e.g. L1D misses per instruction), the other curves of the bottom panel.
func (f *Folded) PerInstruction(c cpu.CounterID) []float64 {
	num := f.Rates[c]
	den := f.Rates[cpu.CtrInstructions]
	out := make([]float64, len(num))
	for i := range num {
		if den[i] <= 0 {
			out[i] = 0
			continue
		}
		out[i] = num[i] / den[i]
	}
	return out
}

// MeanIPC returns mean instructions per cycle over the kept instances.
func (f *Folded) MeanIPC() float64 {
	if f.MeanTotals[cpu.CtrCycles] == 0 {
		return 0
	}
	return f.MeanTotals[cpu.CtrInstructions] / f.MeanTotals[cpu.CtrCycles]
}

// Fold runs the folding computation over the extracted instances.
func Fold(instances []Instance, cfg Config) (*Folded, error) {
	if cfg.GridPoints == 0 {
		cfg.GridPoints = 200
	}
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = 0.02
	}
	if cfg.PhaseTol == 0 {
		cfg.PhaseTol = 0.04
	}
	if cfg.MinPhaseWidth == 0 {
		cfg.MinPhaseWidth = 0.02
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("folding: no instances to fold")
	}
	kept := filterOutliers(instances, cfg.OutlierFactor)
	if len(kept) == 0 {
		return nil, fmt.Errorf("folding: all %d instances filtered as outliers", len(instances))
	}
	f := &Folded{
		Region:         0,
		InstancesUsed:  len(kept),
		InstancesTotal: len(instances),
		Grid:           stats.UniformGrid(0, 1, cfg.GridPoints),
		Cumulative:     make(map[cpu.CounterID][]float64),
		Rates:          make(map[cpu.CounterID][]float64),
		cfg:            cfg,
	}
	var durSum float64
	for i := range kept {
		durSum += float64(kept[i].DurationNs())
		for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
			f.MeanTotals[c] += float64(kept[i].C1[c] - kept[i].C0[c])
		}
	}
	f.MeanDurationNs = durSum / float64(len(kept))
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		f.MeanTotals[c] /= float64(len(kept))
	}

	var nSamples int
	for i := range kept {
		nSamples += len(kept[i].Samples)
	}
	if err := f.foldCounters(kept, nSamples); err != nil {
		return nil, err
	}

	// Fold the memory and source-code samples (pre-sized: every kept sample
	// yields at most one point of each cloud).
	f.Mem = make([]MemPoint, 0, nSamples)
	f.Lines = make([]LinePoint, 0, nSamples)
	for i := range kept {
		in := &kept[i]
		dur := float64(in.DurationNs())
		if dur == 0 {
			continue
		}
		for _, s := range in.Samples {
			sigma := float64(s.TimeNs-in.T0) / dur
			if sigma < 0 || sigma >= 1 {
				continue
			}
			pip := s.IP
			if cfg.PhaseIP != nil {
				pip = cfg.PhaseIP(s)
			}
			f.Mem = append(f.Mem, MemPoint{
				Sigma: sigma, Addr: s.Addr, Store: s.Store, Latency: s.Latency,
				Source: s.Source, IP: s.IP, PhaseIP: pip, StackID: s.StackID, Size: s.Size,
			})
			f.Lines = append(f.Lines, LinePoint{Sigma: sigma, IP: pip})
		}
	}
	slices.SortFunc(f.Mem, func(a, b MemPoint) int {
		switch {
		case a.Sigma < b.Sigma:
			return -1
		case a.Sigma > b.Sigma:
			return 1
		}
		return 0
	})
	slices.SortFunc(f.Lines, func(a, b LinePoint) int {
		switch {
		case a.Sigma < b.Sigma:
			return -1
		case a.Sigma > b.Sigma:
			return 1
		}
		return 0
	})

	f.Phases = detectPhases(f, cfg)
	return f, nil
}

// foldCounters fills the Cumulative and Rates curves of every counter. Each
// counter's (sigma, cumulative fraction) cloud is gathered into buffers
// sized for the largest possible cloud (two anchors per instance plus every
// sample), and the counters whose sigma positions coincide are regressed by
// one FitMany call: without multiplexing every live counter shares one
// cloud; under multiplexing each set of counters with the same live
// instances and kept samples does. One xs buffer is retained per distinct
// cloud; a counter whose positions match a retained cloud leaves its buffer
// to the next counter.
func (f *Folded) foldCounters(kept []Instance, nSamples int) error {
	type cloud struct {
		xs   []float64
		ctrs []cpu.CounterID
		yss  [][]float64
	}
	var clouds []cloud
	size := 2*len(kept) + nSamples
	var xs, ys []float64
	for c := cpu.CounterID(0); c < cpu.NumCounters; c++ {
		if xs == nil {
			xs = make([]float64, 0, size)
		}
		if ys == nil {
			ys = make([]float64, 0, size)
		}
		xs, ys = foldCounter(kept, c, xs[:0], ys[:0])
		if len(xs) == 0 {
			// The counter never increments (e.g. stores in a read-only
			// region): flat zero curves keep all per-counter slices aligned
			// with the grid.
			f.Cumulative[c] = make([]float64, len(f.Grid))
			f.Rates[c] = make([]float64, len(f.Grid))
			continue
		}
		k := slices.IndexFunc(clouds, func(cl cloud) bool { return slices.Equal(cl.xs, xs) })
		if k < 0 {
			clouds = append(clouds, cloud{xs: xs})
			k = len(clouds) - 1
			xs = nil
		}
		clouds[k].ctrs = append(clouds[k].ctrs, c)
		clouds[k].yss = append(clouds[k].yss, ys)
		ys = nil
	}

	sm := stats.Smoother{Kernel: f.cfg.Kernel, Bandwidth: f.cfg.Bandwidth, Lo: 0, Hi: 1}
	for _, cl := range clouds {
		fits, err := sm.FitMany(cl.xs, cl.yss, f.Grid)
		if err != nil {
			return fmt.Errorf("folding: regressing %v: %w", cl.ctrs[0], err)
		}
		for i, c := range cl.ctrs {
			fit := fits[i]
			// A compact kernel leaves NaN at grid points whose support holds
			// no sample; a Gaussian fit has none, so this leaves it as is.
			fillEmptyWindows(fit)
			// Cumulative fractions are physically monotone in [0,1]; pin the
			// endpoints before differentiating.
			fit = stats.Isotonic(fit)
			stats.Clamp(fit, 0, 1)
			fit[0] = 0
			fit[len(fit)-1] = 1
			f.Cumulative[c] = fit
			d, err := stats.Derivative(f.Grid, fit)
			if err != nil {
				return err
			}
			// dFraction/dSigma × total / duration = events per second.
			scale := f.MeanTotals[c] / (f.MeanDurationNs / 1e9)
			rate := make([]float64, len(d))
			for j, v := range d {
				if v < 0 {
					v = 0
				}
				rate[j] = v * scale
			}
			f.Rates[c] = rate
		}
	}
	return nil
}

// fillEmptyWindows replaces the NaN a compact kernel leaves at grid points
// with no sample inside its support by the value of the nearest fitted grid
// point (the lower one on a tie), so the cumulative curve stays finite and
// Isotonic and Derivative get numbers.
func fillEmptyWindows(fit []float64) {
	last := -1 // the previous fitted grid point
	for i, v := range fit {
		if math.IsNaN(v) {
			continue
		}
		for j := last + 1; j < i; j++ {
			if last >= 0 && j-last <= i-j {
				fit[j] = fit[last]
			} else {
				fit[j] = v
			}
		}
		last = i
	}
	if last < 0 {
		return
	}
	for j := last + 1; j < len(fit); j++ {
		fit[j] = fit[last]
	}
}

// filterOutliers keeps instances whose duration lies within factor of the
// median duration.
func filterOutliers(instances []Instance, factor float64) []Instance {
	if factor <= 0 || len(instances) < 3 {
		return instances
	}
	durs := make([]float64, len(instances))
	for i := range instances {
		durs[i] = float64(instances[i].DurationNs())
	}
	med := stats.Quantile(durs, 0.5)
	if med == 0 || math.IsNaN(med) {
		return instances
	}
	out := make([]Instance, 0, len(instances))
	for i := range instances {
		d := durs[i]
		if d >= med/factor && d <= med*factor {
			out = append(out, instances[i])
		}
	}
	return out
}

// foldCounter produces the folded (sigma, cumulative fraction) cloud for
// counter c across instances, including the (0,0) and (1,1) anchors of each
// instance, appending into the caller's reusable buffers.
func foldCounter(instances []Instance, c cpu.CounterID, xs, ys []float64) ([]float64, []float64) {
	for i := range instances {
		in := &instances[i]
		total := float64(in.C1[c] - in.C0[c])
		dur := float64(in.DurationNs())
		if total <= 0 || dur <= 0 {
			continue
		}
		xs = append(xs, 0, 1)
		ys = append(ys, 0, 1)
		for _, s := range in.Samples {
			sigma := float64(s.TimeNs-in.T0) / dur
			if sigma < 0 || sigma > 1 {
				continue
			}
			frac := (float64(s.Counters[c]) - float64(in.C0[c])) / total
			if frac < 0 || frac > 1 || math.IsNaN(frac) {
				continue
			}
			xs = append(xs, sigma)
			ys = append(ys, frac)
		}
	}
	return xs, ys
}
