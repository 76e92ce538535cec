package halving_test

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	. "repro/internal/halving"
	"repro/internal/posterior"
)

func benchModel(b *testing.B, n int) posterior.Model {
	b.Helper()
	pool := engine.NewPool(0)
	b.Cleanup(pool.Close)
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.06
	}
	m, err := posterior.Spec{}.Open(pool, risks, dilution.Binary{Sens: 0.95, Spec: 0.99})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Update(bitvec.Full(n/2), dilution.Positive); err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkSelect(b *testing.B) {
	m := benchModel(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(m, Options{MaxPool: 16})
	}
}

func BenchmarkSelectLocalSearch(b *testing.B) {
	m := benchModel(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(m, Options{MaxPool: 16, LocalSearch: true})
	}
}

func BenchmarkLookahead2(b *testing.B) {
	m := benchModel(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookahead(b, m, 2, Options{MaxPool: 8})
	}
}

func BenchmarkLookahead8(b *testing.B) {
	m := benchModel(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookahead(b, m, 8, Options{MaxPool: 16})
	}
}
