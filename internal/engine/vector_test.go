package engine

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/prob"
)

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool(4)
	t.Cleanup(p.Close)
	return p
}

// setEach writes fn(i) to every element i.
func setEach(v *Vector, fn func(i uint64) float64) {
	v.ForPartitions(func(_ int, offset uint64, data []float64) {
		for j := range data {
			data[j] = fn(offset + uint64(j))
		}
	})
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

func TestScale(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 64, 5)
	setEach(v, func(i uint64) float64 { return 2 + float64(i) })
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
	setEach(v, func(i uint64) float64 { return math.Sin(float64(i)) * 1e-7 })
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
	setEach(v, func(uint64) float64 { return 1 })
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

func TestShrinkGather(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 16, 4)
	setEach(v, func(i uint64) float64 { return float64(i) })
	// Forward monotone gather: keep the even positions.
	v.ShrinkGather(8, 2, func(j uint64) uint64 { return 2 * j }, func(data []float64, lo, hi uint64) {
		for i := lo; i < hi; i++ {
			data[i] = data[2*i]
		}
	})
	if v.Len() != 8 || v.Parts() != 2 {
		t.Fatalf("len=%d parts=%d after shrink", v.Len(), v.Parts())
	}
	for i := uint64(0); i < 8; i++ {
		if v.At(i) != float64(2*i) {
			t.Fatalf("element %d = %v, want %v", i, v.At(i), float64(2*i))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("growing ShrinkGather did not panic")
			}
		}()
		v.ShrinkGather(9, 0, nil, nil)
	}()
}

func TestSlice(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 33, 4)
	setEach(v, func(i uint64) float64 { return float64(i * i) })
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
		setEach(v, func(i uint64) float64 { return math.Cos(float64(i)) })
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
	// 2^15 and 2^16 elements run every level on the caller; at 2^17 the
	// last level, 2^16 long, reaches serialBelow and runs on the pool.
	var factors []float64
	var v *Vector
	for bits := 15; bits <= 17; bits++ {
		factors = make([]float64, bits)
		for i := range factors {
			factors[i] = 0.3 + 0.11*float64(i)
		}
		v = NewVector(p, 1<<uint(bits), 5)
		setEach(v, func(uint64) float64 { return -1 }) // FillDoubling must overwrite whatever was there
		v.FillDoubling(0.7, factors)
		for s, got := range v.Slice() {
			want := 0.7
			for i, f := range factors {
				if s>>uint(i)&1 == 1 {
					want *= f
				}
			}
			if got != want {
				t.Fatalf("2^%d: element %d = %v, want %v (factors applied in ascending bit order)", bits, s, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FillDoubling accepted 3 factors for 2^17 elements")
		}
	}()
	v.FillDoubling(1, factors[:3])
}

// TestVectorOverAdoptsBacking: a vector built over a slice keeps that
// slice as its storage — the same length and partition layout NewVector
// gives, and no copy: a write through either is seen through the other.
func TestVectorOverAdoptsBacking(t *testing.T) {
	pool := newTestPool(t)
	backing := []float64{1, 2, 3, 4, 5, 6, 7}
	v := VectorOver(pool, backing, 3)
	want := NewVector(pool, 7, 3)
	if v.Len() != want.Len() || v.Parts() != want.Parts() {
		t.Fatalf("%d elements in %d partitions, NewVector gives %d in %d", v.Len(), v.Parts(), want.Len(), want.Parts())
	}
	for p := range v.Parts() {
		if off, data := v.Partition(p); off != want.offsets[p] || len(data) != len(want.parts[p]) {
			t.Fatalf("partition %d: offset %d length %d, NewVector's %d, %d", p, off, len(data), want.offsets[p], len(want.parts[p]))
		}
	}
	v.Set(4, 9)
	backing[6] = -1
	if backing[4] != 9 || v.At(6) != -1 || v.At(0) != 1 {
		t.Fatalf("vector and backing diverged: %v vs %v", v.Slice(), backing)
	}
}

// TestReleaseKeepsOneSpare: a released vector's backing, at the length it
// was made with, is the pool's one spare; TakeSpare hands it over only for
// that length and lets it go otherwise, DropSpare and Close let it go, a
// closed pool keeps none, and the released vector holds nothing a stale
// reader could see.
func TestReleaseKeepsOneSpare(t *testing.T) {
	p := NewPool(2)
	v := NewVector(p, 64, 4)
	v.ShrinkGather(32, 0, func(j uint64) uint64 { return j }, func([]float64, uint64, uint64) {})
	v.Release()
	v.Release() // idempotent
	if v.Len() != 0 || v.Parts() != 0 || len(v.Slice()) != 0 {
		t.Fatalf("a released vector reads %d elements in %d partitions", v.Len(), v.Parts())
	}
	if p.TakeSpare(32) != nil {
		t.Fatal("a spare of 64 elements was handed over for 32")
	}
	if p.TakeSpare(64) != nil {
		t.Fatal("a mismatched take did not let the spare go")
	}

	NewVector(p, 64, 4).Release()
	last := NewVector(p, 64, 4)
	want := &last.backing[0]
	last.Release()
	if got := p.TakeSpare(64); len(got) != 64 || &got[0] != want {
		t.Fatalf("TakeSpare(64) handed over %d elements, want the last released backing", len(got))
	}
	if p.TakeSpare(64) != nil {
		t.Fatal("a spare was handed over twice")
	}

	NewVector(p, 16, 0).Release()
	p.DropSpare()
	if p.TakeSpare(16) != nil {
		t.Fatal("DropSpare kept the spare")
	}
	NewVector(p, 16, 0).Release()
	p.Close()
	if p.TakeSpare(16) != nil {
		t.Fatal("Close kept the spare")
	}
	NewVector(p, 16, 0).Release()
	if p.TakeSpare(16) != nil {
		t.Fatal("a closed pool kept a spare")
	}
	var none *Pool
	none.DropSpare()
	if none.TakeSpare(0) != nil {
		t.Fatal("a nil pool handed over a spare")
	}
}

// TestForAllocatesOnce: a fanned-out For call is one allocation — its
// range, body, claim counter, barrier and panic box together — whether or
// not the pool is instrumented.
func TestForAllocatesOnce(t *testing.T) {
	var sum atomic.Int64
	body := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	bare := NewPool(2)
	defer bare.Close()
	inst := NewPool(2)
	defer inst.Close()
	inst.Instrument(obs.NewRegistry())
	for name, p := range map[string]*Pool{"bare": bare, "instrumented": inst} {
		if got := testing.AllocsPerRun(200, func() { p.For(64, 1, body) }); got != 1 {
			t.Errorf("%s: For allocated %v times per call, want 1", name, got)
		}
	}
}

// TestShrinkGatherKeepsPartitionTables: a ShrinkGather that keeps the
// partition count re-slices the vector's partition tables instead of
// allocating new ones.
func TestShrinkGatherKeepsPartitionTables(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 1<<10, 8)
	src := func(j uint64) uint64 { return j }
	gather := func([]float64, uint64, uint64) {}
	n := v.Len()
	if got := testing.AllocsPerRun(8, func() {
		n /= 2
		v.ShrinkGather(n, 8, src, gather)
	}); got != 0 {
		t.Fatalf("ShrinkGather allocated %v times per call, want 0", got)
	}
}
