package engine

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/prob"
)

// partitionRunners are the two ways Vector's policy can run a partition
// loop: on the calling goroutine and fanned out through Pool.For.
func partitionRunners(v *Vector) map[string]func(fn func(lo, hi int)) {
	return map[string]func(fn func(lo, hi int)){
		"caller": func(fn func(lo, hi int)) { fn(0, len(v.parts)) },
		"pool":   func(fn func(lo, hi int)) { v.pool.For(len(v.parts), 1, fn) },
	}
}

// TestSerialThreshold: either side of serialBelow, every Vector kernel
// gives exactly what the same partition bodies give run on the caller and
// run on the pool, so the policy changes where a kernel runs and never
// what it returns. TestFillDoubling covers FillDoubling's split.
func TestSerialThreshold(t *testing.T) {
	p := newTestPool(t)
	for _, n := range []uint64{serialBelow - 1, serialBelow, serialBelow + 1} {
		for _, parts := range []int{1, 5, 16} {
			fill := func(i uint64) float64 { return math.Sin(float64(i)) * 1e-3 }
			v, scaled := NewVector(p, n, parts), NewVector(p, n, parts)
			setEach(v, fill)
			setEach(scaled, fill)
			scaled.Scale(1.5)
			sum, vec := v.Sum(), v.ReduceVec(2, func(_ int, offset uint64, data, out []float64) {
				for j, x := range data {
					out[0] += x
					out[1] += x * float64(offset+uint64(j))
				}
			})

			for name, run := range partitionRunners(v) {
				sums := make([]prob.Accumulator, parts)
				vecs := make([][2]float64, parts)
				run(func(lo, hi int) {
					for q := lo; q < hi; q++ {
						for j, x := range v.parts[q] {
							i := v.offsets[q] + uint64(j)
							sums[q].Add(x)
							vecs[q][0] += x
							vecs[q][1] += x * float64(i)
						}
					}
				})
				var wantSum prob.Accumulator
				var wantVec [2]prob.Accumulator
				for q := range sums {
					wantSum.Merge(sums[q])
					wantVec[0].Add(vecs[q][0])
					wantVec[1].Add(vecs[q][1])
				}
				if sum != wantSum.Value() || vec[0] != wantVec[0].Value() || vec[1] != wantVec[1].Value() {
					t.Fatalf("n=%d parts=%d: reductions differ from the %s run", n, parts, name)
				}
				want := make([]float64, n)
				run(func(lo, hi int) {
					for q := lo; q < hi; q++ {
						for j, x := range v.parts[q] {
							want[v.offsets[q]+uint64(j)] = x * 1.5
						}
					}
				})
				for i, x := range scaled.Slice() {
					if x != want[i] {
						t.Fatalf("n=%d parts=%d: ForPartitions element %d differs from the %s run", n, parts, i, name)
					}
				}
			}
		}
	}
}

// TestSerialThresholdStaysOnCaller: below serialBelow every kernel is one
// inline task and nothing is sent to the workers; from serialBelow up the
// same kernels do send. The pool's task channel has a spy on its receiving
// end in place of workers.
func TestSerialThresholdStaysOnCaller(t *testing.T) {
	p := &Pool{workers: 2, tasks: make(chan *forTask, 2)}
	var sent int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for task := range p.tasks {
			sent++
			task.run()
		}
	}()
	defer func() { close(p.tasks); <-done }()
	reg := obs.NewRegistry()
	p.Instrument(reg)
	tasks, inline := reg.Counter("sbgt_engine_pool_tasks_total"), reg.Counter("sbgt_engine_pool_inline_total")

	small := NewVector(p, serialBelow-1, 16)
	kernels := map[string]func(v *Vector){
		"ForPartitions": func(v *Vector) { v.Scale(2) },
		"ReduceSum":     func(v *Vector) { v.Sum() },
		"ReduceVec":     func(v *Vector) { v.ReduceVec(1, func(int, uint64, []float64, []float64) {}) },
	}
	for name, kernel := range kernels {
		t0, i0 := tasks.Value(), inline.Value()
		kernel(small)
		if got := tasks.Value() - t0; got != 1 {
			t.Errorf("%s below the threshold counted %d tasks, want 1", name, got)
		}
		if got := inline.Value() - i0; got != 1 {
			t.Errorf("%s below the threshold counted %d inline tasks, want 1", name, got)
		}
	}
	i0 := inline.Value()
	factors := make([]float64, 15)
	NewVector(p, 1<<15, 0).FillDoubling(1, factors)
	if got := inline.Value() - i0; got != 1 {
		t.Errorf("FillDoubling below the threshold counted %d inline tasks, want 1", got)
	}
	if sent != 0 {
		t.Fatalf("%d tasks reached the workers below the threshold", sent)
	}

	NewVector(p, serialBelow, 16).Scale(2)
	if sent == 0 {
		t.Fatal("a kernel at the threshold never reached the workers")
	}
}
