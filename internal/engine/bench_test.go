package engine

import (
	"testing"

	"repro/internal/prob"
)

func benchVector(b *testing.B, n uint64, parts int) *Vector {
	b.Helper()
	pool := NewPool(0)
	b.Cleanup(pool.Close)
	v := NewVector(pool, n, parts)
	setEach(v, func(uint64) float64 { return 1.0 / float64(n) })
	return v
}

func BenchmarkForPartitionsScale(b *testing.B) {
	v := benchVector(b, 1<<20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Scale(1.0000001)
	}
}

func BenchmarkSum(b *testing.B) {
	v := benchVector(b, 1<<20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Sum()
	}
}

func BenchmarkReduceVec8(b *testing.B) {
	v := benchVector(b, 1<<20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ReduceVec(8, func(_ int, offset uint64, data []float64, out []float64) {
			for j := range data {
				out[int(offset+uint64(j))&7] += data[j]
			}
		})
	}
}

func BenchmarkReduceSum(b *testing.B) {
	v := benchVector(b, 1<<20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ReduceSum(func(_ int, _ uint64, data []float64) prob.Accumulator {
			var acc prob.Accumulator
			for _, x := range data {
				acc.Add(x)
			}
			return acc
		})
	}
}

func BenchmarkPoolForOverhead(b *testing.B) {
	// Empty bodies: measures pure scheduling cost per For call.
	pool := NewPool(0)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.For(64, 1, func(lo, hi int) {})
	}
}
