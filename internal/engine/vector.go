package engine

import (
	"fmt"
	"sort"

	"repro/internal/prob"
)

// Vector is a dense float64 vector split into contiguous partitions, the
// engine's analogue of a cached Spark RDD of doubles. Partitions are the
// unit of scheduling: kernels run one partition body at a time on a worker,
// and reductions merge per-partition partials in ascending partition order
// so results do not depend on execution interleaving.
type Vector struct {
	pool    *Pool
	backing []float64 // one contiguous allocation; parts slice into it
	parts   [][]float64
	offsets []uint64 // global index of each partition's first element
	n       uint64
}

// VectorOver returns a vector of len(backing) elements on pool over the
// given backing store, which the vector keeps as its storage: the caller
// hands the slice over and must not use it afterwards. It is split into
// the given number of partitions (parts <= 0 selects 4 per worker, enough
// slack for dynamic balancing without drowning in scheduling); the
// backing store is one contiguous array, so partition boundaries cost
// nothing in locality. A caller that overwrites every element passes the
// pool's spare when one fits (Pool.TakeSpare) rather than a new, zeroed
// array; the backing's capacity past its length goes back to the pool
// with it (Release).
func VectorOver(pool *Pool, backing []float64, parts int) *Vector {
	if pool == nil {
		panic("engine: VectorOver with nil pool")
	}
	v := &Vector{
		pool:    pool,
		backing: backing,
		n:       uint64(len(backing)),
	}
	v.partition(parts)
	return v
}

// partition re-slices the first n elements of the backing array into the
// given number of partitions (<= 0 selects 4 per worker), with sizes
// differing by at most one. The partition tables are reused when they hold
// that many, as after every ShrinkGather that keeps the count.
func (v *Vector) partition(parts int) {
	if parts <= 0 {
		parts = v.pool.Workers() * 4
	}
	if uint64(parts) > v.n && v.n > 0 {
		parts = int(v.n)
	}
	if v.n == 0 {
		parts = 0
	}
	if cap(v.parts) >= parts {
		v.parts, v.offsets = v.parts[:parts], v.offsets[:parts]
	} else {
		v.parts, v.offsets = make([][]float64, parts), make([]uint64, parts)
	}
	if parts == 0 {
		return
	}
	per := v.n / uint64(parts)
	rem := v.n % uint64(parts)
	var off uint64
	for i := 0; i < parts; i++ {
		size := per
		if uint64(i) < rem {
			size++
		}
		v.parts[i] = v.backing[off : off+size : off+size]
		v.offsets[i] = off
		off += size
	}
}

// Release hands the vector's backing array, at its full capacity (a
// ShrinkGather does not shorten it, and a backing taken from the pool
// goes back at the capacity it came with), to its pool as a spare for the
// next vector it fits (Pool.TakeSpare), and empties the vector: it holds
// no element afterwards, so a stale holder reads nothing rather than the
// next owner's data.
func (v *Vector) Release() {
	if v.backing == nil {
		return
	}
	v.pool.keep(v.backing[:cap(v.backing)])
	v.backing, v.parts, v.offsets, v.n = nil, nil, nil, 0
}

// Len returns the number of elements.
func (v *Vector) Len() uint64 { return v.n }

// Parts returns the number of partitions.
func (v *Vector) Parts() int { return len(v.parts) }

// Partition returns partition p's first global index and its data, for a
// caller that walks the partitions in order on its own goroutine.
func (v *Vector) Partition(p int) (offset uint64, data []float64) {
	return v.offsets[p], v.parts[p]
}

// Data returns the vector's elements in index order: the one contiguous
// array its partitions slice into, for a caller that reads or writes the
// whole vector on its own goroutine, as a checkpoint's I/O does.
func (v *Vector) Data() []float64 { return v.backing[:v.n] }

// Pool returns the pool the vector schedules on.
func (v *Vector) Pool() *Pool { return v.pool }

// At returns element i. It is intended for tests and debugging; kernels
// should use partition bodies. It panics when i is out of range.
func (v *Vector) At(i uint64) float64 {
	p, j := v.locate(i)
	return v.parts[p][j]
}

// Set writes element i. Like At, it is for tests and setup code.
func (v *Vector) Set(i uint64, x float64) {
	p, j := v.locate(i)
	v.parts[p][j] = x
}

func (v *Vector) locate(i uint64) (part int, idx uint64) {
	if i >= v.n {
		panic(fmt.Sprintf("engine: index %d out of range [0,%d)", i, v.n))
	}
	// Partition sizes differ by at most one, so a direct estimate lands on
	// or next to the right partition; fix up locally.
	p := int(i * uint64(len(v.parts)) / v.n)
	if p >= len(v.parts) {
		p = len(v.parts) - 1
	}
	for v.offsets[p] > i {
		p--
	}
	for p+1 < len(v.parts) && v.offsets[p+1] <= i {
		p++
	}
	return p, i - v.offsets[p]
}

// serialBelow is the state count under which a Vector kernel runs its
// partition loop on the calling goroutine instead of fanning out to the
// pool: below it a second core does not repay the hand-off even when it
// is idle (BenchmarkSerialCrossover; the measured table is in DESIGN
// §5.2). The partition layout, and so every merge order, is the same
// either way.
const serialBelow = 1 << 16

// forParts runs fn over the partition range [0, Parts()): inline below
// serialBelow states, on the pool from there up.
func (v *Vector) forParts(fn func(lo, hi int)) {
	switch {
	case v.n >= serialBelow:
		v.pool.For(len(v.parts), 1, fn)
	case len(v.parts) > 0:
		v.pool.inline(len(v.parts), fn)
	}
}

// ForPartitions runs body once per partition, in parallel from serialBelow
// states up. body receives the partition index, the global index of the
// partition's first element, and the partition's data slice, which it may
// mutate. This is the primitive the lattice layer builds its fused kernels
// on.
func (v *Vector) ForPartitions(body func(part int, offset uint64, data []float64)) {
	v.forParts(func(lo, hi int) {
		for p := lo; p < hi; p++ {
			body(p, v.offsets[p], v.parts[p])
		}
	})
}

// ReduceSum runs body once per partition, as ForPartitions does; each
// invocation returns a compensated partial sum for its partition. Partials are merged
// in ascending partition order, giving a fixed-shape reduction tree:
// repeated runs produce bit-identical results regardless of scheduling.
func (v *Vector) ReduceSum(body func(part int, offset uint64, data []float64) prob.Accumulator) float64 {
	partials := make([]prob.Accumulator, len(v.parts))
	v.forParts(func(lo, hi int) {
		for p := lo; p < hi; p++ {
			partials[p] = body(p, v.offsets[p], v.parts[p])
		}
	})
	var total prob.Accumulator
	for _, acc := range partials {
		total.Merge(acc)
	}
	return total.Value()
}

// ReduceVec is the multi-output reduction: each partition fills a
// length-m partial vector (out is zeroed before body runs), and partials
// are merged component-wise in ascending partition order with compensated
// accumulators, into the first partition's vector, which it returns. The
// marginal computation (m = number of subjects) and the halving candidate
// scan (m = number of candidate pools) are both single ReduceVec passes.
func (v *Vector) ReduceVec(m int, body func(part int, offset uint64, data []float64, out []float64)) []float64 {
	partials := make([][]float64, len(v.parts))
	v.forParts(func(lo, hi int) {
		for p := lo; p < hi; p++ {
			out := make([]float64, m)
			body(p, v.offsets[p], v.parts[p], out)
			partials[p] = out
		}
	})
	if len(partials) == 0 {
		return make([]float64, m)
	}
	out := partials[0]
	for j := range out {
		var acc prob.Accumulator
		for _, part := range partials {
			acc.Add(part[j])
		}
		out[j] = acc.Value()
	}
	return out
}

// ShrinkGather shrinks the vector in place to n elements (n <= Len) and
// re-partitions it into parts partitions (<= 0 selects the engine
// default). Element j becomes element src(j), where src(j)-j >= 0 never
// decreases (a forward gather like a bit-splice collapse, which drops ever
// more elements below its source); gather(data, lo, hi) assigns data[j] =
// data[src(j)] for j in [lo, hi) over the old contents. Past the in-place
// prefix (src(j) == j) it runs in ascending waves [a, src(a)), each
// writing only below what it reads, so a wave's chunks may run at once:
// from serialBelow elements on the pool, shorter waves back to back on the
// caller. No buffer is allocated.
func (v *Vector) ShrinkGather(n uint64, parts int, src func(j uint64) uint64, gather func(data []float64, lo, hi uint64)) {
	if n > v.n {
		panic(fmt.Sprintf("engine: ShrinkGather to %d exceeds length %d", n, v.n))
	}
	data := v.backing[:v.n]
	wave := func(a uint64) uint64 { return min(src(a), n) } // the end of the wave from a
	a := uint64(sort.Search(int(n), func(j int) bool { return src(uint64(j)) > uint64(j) }))
	for a < n {
		b := a
		for b < n && wave(b)-b < serialBelow {
			b = wave(b)
		}
		if b > a {
			gather(data, a, b)
		} else {
			start := a // captured by value, so the serial waves leave a on the stack
			b = wave(start)
			v.pool.For(int(b-start), 0, func(lo, hi int) { gather(data, start+uint64(lo), start+uint64(hi)) })
		}
		a = b
	}
	v.n = n
	v.partition(parts)
}

// FillDoubling overwrites the vector with the product measure of a Boolean
// lattice: element s becomes base · Π_{i ∈ bits(s)} factors[i], the
// factors applied in ascending bit order. Element 0 is base, and level i
// is elements [0, 2^i) times factors[i] written to [2^i, 2^(i+1)) — one
// multiply per element, the same multiplies in the same order as walking
// each index's bits. Levels run in sequence: those shorter than
// serialBelow back to back as one inline task, each longer one on the
// pool. Len must be 2^len(factors).
func (v *Vector) FillDoubling(base float64, factors []float64) {
	if v.n != uint64(1)<<uint(len(factors)) {
		panic(fmt.Sprintf("engine: FillDoubling with %d factors on %d elements", len(factors), v.n))
	}
	v.backing[0] = base
	level := func(i, lo, hi int) {
		half, f := 1<<uint(i), factors[i]
		d := v.backing[half+lo : half+hi]
		for j, x := range v.backing[lo:hi] {
			d[j] = x * f
		}
	}
	i := 0
	v.pool.inline(1, func(int, int) {
		for ; i < len(factors) && 1<<uint(i) < serialBelow; i++ {
			level(i, 0, 1<<uint(i))
		}
	})
	for ; i < len(factors); i++ {
		v.pool.For(1<<uint(i), 0, func(lo, hi int) { level(i, lo, hi) })
	}
}

// Scale multiplies every element by c.
func (v *Vector) Scale(c float64) {
	v.ForPartitions(func(_ int, _ uint64, data []float64) {
		for i := range data {
			data[i] *= c
		}
	})
}

// Sum returns the deterministic compensated total of the vector.
func (v *Vector) Sum() float64 {
	return v.ReduceSum(func(_ int, _ uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for _, x := range data {
			acc.Add(x)
		}
		return acc
	})
}

// Slice materializes the whole vector into one flat slice, for tests and
// for shipping small vectors across the cluster wire.
func (v *Vector) Slice() []float64 {
	out := make([]float64, v.n)
	v.ForPartitions(func(_ int, offset uint64, data []float64) {
		copy(out[offset:], data)
	})
	return out
}
