package telemetry

import (
	"bytes"
	"testing"
)

// The micro-benchmarks below are the analytic half of the EXPERIMENTS.md
// overhead argument: the macro delta on a figure-scale run sits inside
// machine noise, so the per-operation costs here bound it from above —
// boundaries-per-run × publish cost is the worst-case total.

func BenchmarkProgressPublish(b *testing.B) {
	b.ReportAllocs()
	var p Progress
	p.SetTotal(1 << 20)
	p.SetLevelCount(4)
	for i := 0; i < b.N; i++ {
		// One full instance-boundary publish: instances, CPU, 4 levels.
		p.SetInstances(uint64(i))
		p.SetCPU(uint64(i)*100, uint64(i)*80)
		for l := 0; l < 4; l++ {
			p.SetLevel(l, uint64(i), uint64(i/2))
		}
	}
}

func BenchmarkProgressSnapshot(b *testing.B) {
	b.ReportAllocs()
	var p Progress
	p.SetTotal(1 << 20)
	p.SetLevelCount(4)
	p.SetInstances(12345)
	var s ProgressSnapshot
	for i := 0; i < b.N; i++ {
		s = p.Snapshot()
	}
	_ = s
}

func BenchmarkCounterInc(b *testing.B) {
	b.ReportAllocs()
	r := NewRegistry()
	c := r.Counter("bench_total", "bench counter")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	b.ReportAllocs()
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "bench histogram",
		[]float64{0.001, 0.01, 0.1, 1, 10})
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%7) * 0.03)
	}
}

// BenchmarkWriteText is the scrape cost: it runs on the observer's
// clock, never the simulation's, so it only needs to be cheap enough
// for a polling scraper.
func BenchmarkWriteText(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		c := r.Counter("bench_total", "bench counter", "shard", string(rune('a'+i)))
		c.Add(uint64(i) * 17)
	}
	h := r.Histogram("bench_seconds", "bench histogram",
		[]float64{0.001, 0.01, 0.1, 1, 10})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.004)
	}
	r.GaugeFunc("bench_depth", "bench gauge", func() float64 { return 3 })
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.WriteText(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
