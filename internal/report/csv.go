package report

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/cpu"
	"repro/internal/folding"
)

// WriteLinesCSV emits the top panel's data: sigma, ip, function, line.
func WriteLinesCSV(w io.Writer, f *Figure1) error {
	r := newCSVRow(w)
	if err := r.header("sigma", "ip", "function", "file", "line"); err != nil {
		return err
	}
	for _, lp := range f.Folded.Lines {
		fn, file, line := "", "", 0
		if loc, ok := f.Binary.Lookup(lp.IP); ok {
			fn, file, line = loc.Function, loc.File, loc.Line
		}
		r.float(lp.Sigma)
		r.hex(lp.IP)
		r.str(fn)
		r.str(file)
		r.int(line)
		if err := r.end(); err != nil {
			return err
		}
	}
	return r.w.Flush()
}

// WriteMemCSV emits the middle panel's data: sigma, addr, kind, latency,
// source, and the owning object (resolved through the registry snapshot).
func WriteMemCSV(w io.Writer, f *Figure1, objectOf func(addr uint64) string) error {
	r := newCSVRow(w)
	if err := r.header("sigma", "addr", "kind", "latency", "source", "object"); err != nil {
		return err
	}
	for _, mp := range f.Folded.Mem {
		kind := "load"
		if mp.Store {
			kind = "store"
		}
		obj := ""
		if objectOf != nil {
			obj = objectOf(mp.Addr)
		}
		r.float(mp.Sigma)
		r.hex(mp.Addr)
		r.str(kind)
		r.uint(mp.Latency)
		r.str(mp.Source.String())
		r.str(obj)
		if err := r.end(); err != nil {
			return err
		}
	}
	return r.w.Flush()
}

// WriteCountersCSV emits the bottom panel's series: sigma, MIPS and the
// per-instruction ratios.
func WriteCountersCSV(w io.Writer, f *folding.Folded) error {
	r := newCSVRow(w)
	if err := r.header("sigma", "mips", "branches_per_instr",
		"l1d_miss_per_instr", "l2_miss_per_instr", "l3_miss_per_instr"); err != nil {
		return err
	}
	mips := f.MIPS()
	br := f.PerInstruction(cpu.CtrBranches)
	l1 := f.PerInstruction(cpu.CtrL1DMiss)
	l2 := f.PerInstruction(cpu.CtrL2Miss)
	l3 := f.PerInstruction(cpu.CtrL3Miss)
	for i, g := range f.Grid {
		r.float(g)
		r.float(mips[i])
		r.float(br[i])
		r.float(l1[i])
		r.float(l2[i])
		r.float(l3[i])
		if err := r.end(); err != nil {
			return err
		}
	}
	return r.w.Flush()
}

// WritePhasesCSV emits the phase table.
func WritePhasesCSV(w io.Writer, f *folding.Folded) error {
	r := newCSVRow(w)
	if err := r.header("phase", "lo", "hi", "direction", "duration_ns",
		"mips", "l1d_miss_per_instr", "l3_miss_per_instr", "span_bandwidth_mb_s",
		"loads", "stores"); err != nil {
		return err
	}
	for i, p := range f.Phases {
		name := p.Name
		if name == "" {
			name = "phase" + strconv.Itoa(i)
		}
		r.str(name)
		r.float(p.Lo)
		r.float(p.Hi)
		r.str(p.Direction.String())
		r.float(p.DurationNs)
		r.float(p.MIPSMean)
		r.float(p.PerInstr[cpu.CtrL1DMiss])
		r.float(p.PerInstr[cpu.CtrL3Miss])
		r.float(p.SpanBandwidth / 1e6)
		r.int(p.Loads)
		r.int(p.Stores)
		if err := r.end(); err != nil {
			return err
		}
	}
	return r.w.Flush()
}

// csvRow encodes CSV rows by appending every field into one reused buffer
// and writing each finished row once. Its bytes equal an encoding/csv
// Writer (comma separator, LF line ends) fed strconv.FormatFloat(v, 'g',
// 6, 64) floats, %#x hex and decimal integers. Each field appends its
// separator after itself; end turns the last one into the line end.
type csvRow struct {
	w *bufio.Writer
	b []byte
}

func newCSVRow(w io.Writer) *csvRow { return &csvRow{w: bufio.NewWriter(w)} }

func (r *csvRow) float(v float64) { r.b = append(strconv.AppendFloat(r.b, v, 'g', 6, 64), ',') }

// hex matches fmt's %#x, including "0x0" for zero.
func (r *csvRow) hex(v uint64) {
	r.b = append(strconv.AppendUint(append(r.b, "0x"...), v, 16), ',')
}

func (r *csvRow) int(v int) { r.b = append(strconv.AppendInt(r.b, int64(v), 10), ',') }

func (r *csvRow) uint(v uint64) { r.b = append(strconv.AppendUint(r.b, v, 10), ',') }

// str appends a text field, quoted under encoding/csv's rule: a field is
// quoted when it is `\.`, contains a comma, quote, CR or LF, or starts
// with a Unicode space; inside quotes a quote is doubled and CR and LF are
// copied as they are.
func (r *csvRow) str(s string) {
	if !csvNeedsQuotes(s) {
		r.b = append(append(r.b, s...), ',')
		return
	}
	r.b = append(r.b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		r.b = append(append(r.b, s[:i+1]...), '"')
		s = s[i+1:]
	}
	r.b = append(append(r.b, s...), '"', ',')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		// All four special bytes sort at or below ',', so one comparison
		// clears the letters, digits, '_' and '.' that names are made of.
		if c := s[i]; c <= ',' && (c == ',' || c == '"' || c == '\r' || c == '\n') {
			return true
		}
	}
	if s[0] < utf8.RuneSelf {
		return unicode.IsSpace(rune(s[0]))
	}
	r1, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r1)
}

// header writes one row of plain text fields.
func (r *csvRow) header(names ...string) error {
	for _, n := range names {
		r.str(n)
	}
	return r.end()
}

// end finishes the row and hands it to the buffered writer.
func (r *csvRow) end() error {
	r.b[len(r.b)-1] = '\n'
	_, err := r.w.Write(r.b)
	r.b = r.b[:0]
	return err
}
