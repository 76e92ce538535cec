package engine

import (
	"math"
	"testing"

	"repro/internal/prob"
)

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool(4)
	t.Cleanup(p.Close)
	return p
}

func TestNewVectorLayout(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 103, 10)
	if v.Len() != 103 || v.Parts() != 10 {
		t.Fatalf("len=%d parts=%d", v.Len(), v.Parts())
	}
	// Offsets must be contiguous and cover the range.
	var covered uint64
	for i := 0; i < v.Parts(); i++ {
		if v.offsets[i] != covered {
			t.Fatalf("partition %d offset %d, want %d", i, v.offsets[i], covered)
		}
		covered += uint64(len(v.parts[i]))
		// Balanced: sizes differ by at most 1.
		if d := len(v.parts[i]) - len(v.parts[v.Parts()-1]); d < 0 || d > 1 {
			t.Fatalf("partition %d unbalanced (size %d vs %d)", i, len(v.parts[i]), len(v.parts[v.Parts()-1]))
		}
	}
	if covered != 103 {
		t.Fatalf("partitions cover %d elements", covered)
	}
}

func TestNewVectorEdges(t *testing.T) {
	p := newTestPool(t)
	if v := NewVector(p, 0, 4); v.Len() != 0 || v.Parts() != 0 {
		t.Errorf("empty vector: len=%d parts=%d", v.Len(), v.Parts())
	}
	// More partitions than elements collapses to one element per partition.
	if v := NewVector(p, 3, 100); v.Parts() != 3 {
		t.Errorf("tiny vector parts = %d, want 3", v.Parts())
	}
	// Default partition count.
	if v := NewVector(p, 1000, 0); v.Parts() != p.Workers()*4 {
		t.Errorf("default parts = %d", v.Parts())
	}
}

func TestNewVectorNilPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil pool did not panic")
		}
	}()
	NewVector(nil, 10, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 97, 7)
	for i := uint64(0); i < v.Len(); i++ {
		v.Set(i, float64(i)*1.5)
	}
	for i := uint64(0); i < v.Len(); i++ {
		if got := v.At(i); got != float64(i)*1.5 {
			t.Fatalf("At(%d) = %v", i, got)
		}
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	v.At(5)
}

func TestForPartitionsSeesGlobalOffsets(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 50, 6)
	v.ForPartitions(func(_ int, offset uint64, data []float64) {
		for j := range data {
			data[j] = float64(offset + uint64(j))
		}
	})
	for i := uint64(0); i < 50; i++ {
		if v.At(i) != float64(i) {
			t.Fatalf("element %d = %v", i, v.At(i))
		}
	}
}

func TestFillMapScale(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 64, 5)
	v.Fill(2)
	v.Map(func(i uint64, x float64) float64 { return x + float64(i) })
	v.Scale(0.5)
	for i := uint64(0); i < 64; i++ {
		want := (2 + float64(i)) / 2
		if got := v.At(i); got != want {
			t.Fatalf("element %d = %v, want %v", i, got, want)
		}
	}
}

func TestSumMatchesSequential(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 10000, 16)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
		v.Set(uint64(i), xs[i])
	}
	got, want := v.Sum(), prob.Sum(xs)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %.17g, sequential = %.17g", got, want)
	}
}

func TestSumDeterministicAcrossRuns(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 65537, 13)
	v.Map(func(i uint64, _ float64) float64 {
		return math.Sin(float64(i)) * 1e-7
	})
	first := v.Sum()
	for run := 0; run < 20; run++ {
		if got := v.Sum(); got != first {
			t.Fatalf("run %d: Sum = %.17g, first = %.17g", run, got, first)
		}
	}
}

func TestReduceSumPartialsMergedInOrder(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 100, 10)
	got := v.ReduceSum(func(part int, _ uint64, _ []float64) prob.Accumulator {
		var acc prob.Accumulator
		acc.Add(float64(part))
		return acc
	})
	if got != 45 {
		t.Fatalf("ReduceSum = %v, want 45", got)
	}
}

func TestReduceVec(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 1000, 8)
	v.Fill(1)
	// out[0] counts elements; out[1] sums global indices.
	got := v.ReduceVec(2, func(_ int, offset uint64, data []float64, out []float64) {
		for j := range data {
			out[0] += data[j]
			out[1] += float64(offset + uint64(j))
		}
	})
	if got[0] != 1000 {
		t.Fatalf("count = %v", got[0])
	}
	if want := float64(999) * 1000 / 2; got[1] != want {
		t.Fatalf("index sum = %v, want %v", got[1], want)
	}
}

func TestReduceVecZeroOutputs(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 10, 2)
	if got := v.ReduceVec(0, func(_ int, _ uint64, _, _ []float64) {}); len(got) != 0 {
		t.Fatalf("ReduceVec(0) returned %v", got)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 77, 5)
	v.Map(func(i uint64, _ float64) float64 { return float64(i) })
	c := v.Clone()
	c.Scale(2)
	if v.At(10) != 10 || c.At(10) != 20 {
		t.Fatal("Clone aliases original storage")
	}
	v.CopyFrom(c)
	if v.At(10) != 20 {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestCopyFromLayoutMismatchPanics(t *testing.T) {
	p := newTestPool(t)
	a := NewVector(p, 10, 2)
	b := NewVector(p, 10, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("layout mismatch did not panic")
		}
	}()
	a.CopyFrom(b)
}

func TestSlice(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 33, 4)
	v.Map(func(i uint64, _ float64) float64 { return float64(i * i) })
	s := v.Slice()
	if len(s) != 33 {
		t.Fatalf("Slice len = %d", len(s))
	}
	for i, x := range s {
		if x != float64(i*i) {
			t.Fatalf("Slice[%d] = %v", i, x)
		}
	}
}

func TestVectorDeterminismAcrossPartitionCounts(t *testing.T) {
	// Different partition counts may round differently (that is allowed),
	// but the same layout must reproduce exactly; and all layouts must
	// agree to tight tolerance.
	p := newTestPool(t)
	ref := 0.0
	for trial, parts := range []int{1, 3, 16, 64} {
		v := NewVector(p, 4096, parts)
		v.Map(func(i uint64, _ float64) float64 { return math.Cos(float64(i)) })
		s := v.Sum()
		if trial == 0 {
			ref = s
			continue
		}
		if math.Abs(s-ref) > 1e-10*math.Max(1, math.Abs(ref)) {
			t.Fatalf("parts=%d: Sum=%v, ref=%v", parts, s, ref)
		}
	}
}

func TestFillDoubling(t *testing.T) {
	p := newTestPool(t)
	// 2^15 elements: the last level is long enough to run on the pool.
	factors := make([]float64, 15)
	for i := range factors {
		factors[i] = 0.3 + 0.11*float64(i)
	}
	v := NewVector(p, 1<<15, 5)
	v.Fill(-1) // FillDoubling must overwrite whatever was there
	v.FillDoubling(0.7, factors)
	for s := uint64(0); s < v.Len(); s++ {
		want := 0.7
		for i := range factors {
			if s>>uint(i)&1 == 1 {
				want *= factors[i]
			}
		}
		if got := v.At(s); got != want {
			t.Fatalf("element %d = %v, want %v (factors applied in ascending bit order)", s, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FillDoubling accepted 3 factors for 2^15 elements")
		}
	}()
	v.FillDoubling(1, factors[:3])
}
