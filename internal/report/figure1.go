package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/folding"
	"repro/internal/memhier"
	"repro/internal/objects"
	"repro/internal/prog"
)

// Figure1 bundles the inputs of the three-panel report.
type Figure1 struct {
	Folded  *folding.Folded
	Binary  *prog.Binary
	Objects []*objects.Object
	// Width and Height control each panel's raster (defaults 100×24).
	Width, Height int
}

func (f *Figure1) dims() (int, int) {
	w, h := f.Width, f.Height
	if w <= 0 {
		w = 100
	}
	if h <= 0 {
		h = 24
	}
	return w, h
}

// Render writes all three panels and the companion tables.
func (f *Figure1) Render(w io.Writer) error {
	if err := f.RenderCodeLines(w); err != nil {
		return err
	}
	if err := f.RenderAddresses(w); err != nil {
		return err
	}
	if err := f.RenderCounters(w); err != nil {
		return err
	}
	if err := f.RenderPhaseTable(w); err != nil {
		return err
	}
	return f.RenderObjectTable(w)
}

// RenderCodeLines draws the top panel: sampled source position (function ×
// line, encoded by IP) against folded time.
func (f *Figure1) RenderCodeLines(w io.Writer) error {
	width, height := f.dims()
	fmt.Fprintf(w, "\n== Figure 1 (top): code line vs folded time — region folded over %d instances ==\n",
		f.Folded.InstancesUsed)
	if len(f.Folded.Lines) == 0 {
		_, err := fmt.Fprintln(w, "(no samples)")
		return err
	}
	lo, hi := f.Folded.Lines[0].IP, f.Folded.Lines[0].IP
	for _, lp := range f.Folded.Lines {
		if lp.IP < lo {
			lo = lp.IP
		}
		if lp.IP > hi {
			hi = lp.IP
		}
	}
	c := NewCanvas(width, height)
	for _, lp := range f.Folded.Lines {
		c.Plot(c.XForSigma(lp.Sigma), c.YForValue(float64(lp.IP), float64(lo), float64(hi+1)), '*')
	}
	return c.WriteTo(w, func(row int) string {
		// Label rows with the function owning the row's IP midpoint.
		ip := hi - (hi-lo)*uint64(row)/uint64(height)
		if loc, ok := f.Binary.Lookup(ip); ok {
			name := loc.Function
			if len(name) > 14 {
				name = name[:14]
			}
			return name
		}
		return ""
	})
}

// RenderAddresses draws the middle panel: referenced addresses against
// folded time; loads are '.', stores '#'. Object ranges referenced by the
// samples are annotated below, paper-style ("name|size").
func (f *Figure1) RenderAddresses(w io.Writer) error {
	width, height := f.dims()
	fmt.Fprintf(w, "\n== Figure 1 (middle): addresses referenced vs folded time ==\n")
	if len(f.Folded.Mem) == 0 {
		_, err := fmt.Fprintln(w, "(no samples)")
		return err
	}
	addrs := make([]float64, len(f.Folded.Mem))
	for i, mp := range f.Folded.Mem {
		addrs[i] = float64(mp.Addr)
	}
	sort.Float64s(addrs)
	lo := addrs[int(0.005*float64(len(addrs)))]
	hi := addrs[len(addrs)-1-int(0.005*float64(len(addrs)))]
	c := NewCanvas(width, height)
	for _, mp := range f.Folded.Mem {
		ch := byte('.')
		if mp.Store {
			ch = '#'
		}
		c.Plot(c.XForSigma(mp.Sigma), c.YForValue(float64(mp.Addr), lo, hi), ch)
	}
	if err := c.WriteTo(w, func(row int) string {
		v := hi - (hi-lo)*float64(row)/float64(height)
		return fmt.Sprintf("%#x", uint64(v))
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "   legend: '.' load, '#' store")
	// Object annotations: most-referenced objects overlapping the panel.
	fmt.Fprintln(w, "   objects:")
	for _, o := range topObjects(f.Objects, 6) {
		fmt.Fprintf(w, "     %-40s  range %s  refs %d (loads %d, stores %d)\n",
			o.Label(), o.Range, o.Refs, o.Loads, o.Stores)
	}
	return nil
}

func topObjects(objs []*objects.Object, n int) []*objects.Object {
	out := make([]*objects.Object, 0, len(objs))
	for _, o := range objs {
		if o.Refs > 0 {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Refs > out[j].Refs })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// RenderCounters draws the bottom panel: MIPS plus per-instruction counter
// ratios over folded time, one line chart per series.
func (f *Figure1) RenderCounters(w io.Writer) error {
	width, _ := f.dims()
	fmt.Fprintf(w, "\n== Figure 1 (bottom): counters / instruction and MIPS vs folded time ==\n")
	mips := f.Folded.MIPS()
	if err := renderSeries(w, "MIPS", f.Folded.Grid, mips, width, 10); err != nil {
		return err
	}
	for _, ctr := range []cpu.CounterID{cpu.CtrBranches, cpu.CtrL1DMiss, cpu.CtrL2Miss, cpu.CtrL3Miss} {
		series := f.Folded.PerInstruction(ctr)
		name := fmt.Sprintf("%s/instr", counterShort(ctr))
		if err := renderSeries(w, name, f.Folded.Grid, series, width, 8); err != nil {
			return err
		}
	}
	return nil
}

func counterShort(c cpu.CounterID) string {
	switch c {
	case cpu.CtrBranches:
		return "Branches"
	case cpu.CtrL1DMiss:
		return "L1D miss"
	case cpu.CtrL2Miss:
		return "L2 miss"
	case cpu.CtrL3Miss:
		return "L3 miss"
	}
	return c.String()
}

func renderSeries(w io.Writer, name string, grid, ys []float64, width, height int) error {
	if len(ys) == 0 {
		return nil
	}
	lo, hi := ys[0], ys[0]
	for _, v := range ys {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	c := NewCanvas(width, height)
	for i, g := range grid {
		c.Plot(c.XForSigma(g), c.YForValue(ys[i], lo, hi), '*')
	}
	fmt.Fprintf(w, "\n-- %s (min %.4g, max %.4g) --\n", name, lo, hi)
	return c.WriteTo(w, func(row int) string {
		v := hi - (hi-lo)*float64(row)/float64(height)
		return fmt.Sprintf("%.4g", v)
	})
}

// RenderPhaseTable writes the detected phase structure with the paper's
// derived metrics: per-phase MIPS, miss ratios, sweep direction and the
// traversal-bandwidth approximation.
func (f *Figure1) RenderPhaseTable(w io.Writer) error {
	fmt.Fprintf(w, "\n== Detected phases ==\n")
	fmt.Fprintf(w, "%-28s %7s %7s %9s %9s %10s %10s %12s\n",
		"phase", "from", "to", "dir", "MIPS", "L1Dm/ins", "L3m/ins", "span BW MB/s")
	for i, p := range f.Folded.Phases {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("phase%d", i)
		}
		if len(name) > 28 {
			name = name[:28]
		}
		fmt.Fprintf(w, "%-28s %7.3f %7.3f %9s %9.0f %10.4f %10.4f %12.0f\n",
			name, p.Lo, p.Hi, p.Direction, p.MIPSMean,
			p.PerInstr[cpu.CtrL1DMiss], p.PerInstr[cpu.CtrL3Miss],
			p.SpanBandwidth/1e6)
	}
	fmt.Fprintf(w, "mean IPC over region: %.3f\n", f.Folded.MeanIPC())
	return nil
}

// RenderObjectTable writes the referenced-object accounting. The mix keeps
// the historical 4-source encoding: hpcgrepro assembles Figure1 only from
// flat single-core runs (NUMA machines render MachineFigure instead), where
// the remote bucket is structurally zero.
func (f *Figure1) RenderObjectTable(w io.Writer) error {
	fmt.Fprintf(w, "\n== Data objects by sampled references ==\n")
	fmt.Fprintf(w, "%-42s %-8s %10s %10s %10s %9s  %s\n",
		"object", "kind", "refs", "loads", "stores", "avg lat", "source mix (L1/L2/L3/DRAM)")
	for _, o := range topObjects(f.Objects, 12) {
		mix := make([]string, memhier.SrcDRAMRemote)
		for i := range mix {
			mix[i] = fmt.Sprintf("%d", o.Sources[i])
		}
		fmt.Fprintf(w, "%-42s %-8s %10d %10d %10d %9.1f  %s\n",
			o.Label(), o.Kind, o.Refs, o.Loads, o.Stores, o.MeanLatency(),
			strings.Join(mix, "/"))
	}
	return nil
}
