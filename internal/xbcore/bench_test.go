package xbcore

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/program"
	"xbc/internal/trace"
)

func benchStream(b *testing.B, uops uint64) *trace.Stream {
	b.Helper()
	spec := program.DefaultSpec("xbc-bench", 42)
	spec.Functions = 80
	s, err := trace.Generate(spec, uops)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkInsert measures the XFU insert path (all cases mixed).
func BenchmarkInsert(b *testing.B) {
	c, _ := NewCache(DefaultConfig(32 * 1024))
	seqs := make([][]isa.UopID, 256)
	for i := range seqs {
		n := 1 + i%16
		endIP := isa.Addr(0x1000 + i*64)
		seqs[i] = rseqFor(endIP, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := seqs[i%len(seqs)]
		c.Insert(s[0].IP(), s, 0)
	}
}

// BenchmarkFetch measures the delivery-path access (hit case).
func BenchmarkFetch(b *testing.B) {
	c, _ := NewCache(DefaultConfig(32 * 1024))
	rseq := rseqFor(0x4000, 12)
	id, _, _ := c.Insert(0x4000, rseq, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Fetch(0x4000, id, 12, rseq).OK {
			b.Fatal("fetch missed")
		}
	}
}

// BenchmarkCutXB measures the dynamic block cutter.
func BenchmarkCutXB(b *testing.B) {
	s := benchStream(b, 100_000)
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		xb := cutXB(s.Recs, i, 16, noProm)
		i = xb.end
		if i >= len(s.Recs) {
			i = 0
		}
	}
}

// BenchmarkRunEndToEnd measures whole-frontend simulation throughput.
func BenchmarkRunEndToEnd(b *testing.B) {
	s := benchStream(b, 200_000)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		fe := New(DefaultConfig(32*1024), frontend.DefaultConfig())
		m := frontend.Run(fe, s)
		if m.Uops != s.Uops() {
			b.Fatal("dropped uops")
		}
	}
	b.ReportMetric(float64(s.Uops())*float64(b.N)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkXBTBTrain measures the promotion counter path.
func BenchmarkXBTBTrain(b *testing.B) {
	cfg := DefaultConfig(32 * 1024)
	x := NewXBTB(cfg)
	e := x.Ensure(0x100, isa.CondBranch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Train(e, i%8 != 0, cfg)
	}
}
