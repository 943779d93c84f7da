package report

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// FuzzRowMatchesEncodingCSV holds the row encoder byte-equal to the
// encoding/csv Writer it replaced, fed the field formatting the CSV writers
// used before: strconv.FormatFloat(v, 'g', 6, 64) floats, %#x hex and
// decimal integers. The text field appears first, in the middle of the
// row, last, and alone on a row, so every quoting position is covered.
func FuzzRowMatchesEncodingCSV(f *testing.F) {
	texts := []string{
		",", `"`, "\r", "\n", "\r\n", " lead", "\tlead", "\u00a0lead", "\u2003lead",
		`\.`, "", "plain", `say "hi", twice`, "a\rb", "a\nb", "a\r\nb", "trail ", "\xff\xfe",
	}
	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300,
		5e-324, 0, 1, -1.5, 123456789, 0.000123456789,
	}
	uints := []uint64{0, 1, 15, 16, 0x400123, math.MaxUint64, 1 << 63}
	for i, s := range texts {
		f.Add(s, floats[i%len(floats)], uints[i%len(uints)])
	}
	for i, v := range floats {
		f.Add("x", v, uints[i%len(uints)])
	}
	f.Fuzz(func(t *testing.T, s string, v float64, u uint64) {
		var got bytes.Buffer
		r := newCSVRow(&got)
		r.str(s)
		r.float(v)
		r.hex(u)
		r.str(s)
		r.uint(u)
		r.int(int(int64(u)))
		r.str(s)
		if err := r.end(); err != nil {
			t.Fatal(err)
		}
		r.str(s)
		if err := r.end(); err != nil {
			t.Fatal(err)
		}
		if err := r.w.Flush(); err != nil {
			t.Fatal(err)
		}

		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		rows := [][]string{
			{s, strconv.FormatFloat(v, 'g', 6, 64), fmt.Sprintf("%#x", u), s,
				strconv.FormatUint(u, 10), strconv.Itoa(int(int64(u))), s},
			{s},
		}
		if err := cw.WriteAll(rows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("row encoding differs for (%q, %v, %#x):\ngot  %q\nwant %q",
				s, v, u, got.Bytes(), want.Bytes())
		}
	})
}
