package engine

import (
	"fmt"

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

// NewVector allocates a zero-filled vector of n elements on pool, split
// into the given number of partitions (parts <= 0 selects 4 per worker,
// enough slack for dynamic balancing without drowning in scheduling).
// The backing store is one contiguous allocation, so partition boundaries
// cost nothing in locality.
func NewVector(pool *Pool, n uint64, parts int) *Vector {
	if pool == nil {
		panic("engine: NewVector with nil pool")
	}
	v := &Vector{
		pool:    pool,
		backing: make([]float64, n),
		n:       n,
	}
	v.partition(parts)
	return v
}

// partition re-slices the first n elements of the backing array into the
// given number of partitions (<= 0 selects 4 per worker), with sizes
// differing by at most one.
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
	v.parts = make([][]float64, parts)
	v.offsets = make([]uint64, parts)
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

// Len returns the number of elements.
func (v *Vector) Len() uint64 { return v.n }

// Parts returns the number of partitions.
func (v *Vector) Parts() int { return len(v.parts) }

// Partition returns partition p's first global index and its data, for a
// caller that walks the partitions in order on its own goroutine.
func (v *Vector) Partition(p int) (offset uint64, data []float64) {
	return v.offsets[p], v.parts[p]
}

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

// minSubsetGE returns the smallest submask f of free with f >= x in
// integer order, and ok = false when free has no such submask. It is the
// entry-point computation for clamping a masked subset walk to a
// partition's [offset, offset+len) index range.
func minSubsetGE(free, x uint64) (f uint64, ok bool) {
	if x == 0 {
		return 0, true
	}
	var r uint64
	for b := 63; b >= 0; b-- {
		bit := uint64(1) << uint(b)
		if free&bit != 0 {
			// Match x's bit and stay tight: equal prefixes so far.
			if x&bit != 0 {
				r |= bit
			}
			continue
		}
		if x&bit == 0 {
			continue
		}
		// x demands a 1 at a position free cannot supply, so every submask
		// with the tight prefix is < x from here down. Bump the lowest free
		// bit above b still unset in r (its x-bit is 0, so the result
		// exceeds x) and clear everything below it for minimality.
		avail := free &^ r &^ (bit | (bit - 1))
		if avail == 0 {
			return 0, false
		}
		low := avail & (-avail)
		return (r | low) &^ (low - 1), true
	}
	// Tight all the way: x is itself a submask of free.
	return r, true
}

// ReduceSubset returns the deterministic compensated sum of the elements
// whose global index lies in the sub-lattice {base | f : f ⊆ free}. base
// and free must be disjoint and base|free must be a valid index. Each
// partition enumerates its slice of the sub-lattice in increasing index
// order with the masked subset iteration f' = (f − free) & free, clamped
// to the partition range via minSubsetGE, so the walk stays parallel
// across partitions and the result is bit-identical to a dense scan that
// skips non-members — at 2^popcount(free) loads instead of Len().
func (v *Vector) ReduceSubset(base, free uint64) float64 {
	if base&free != 0 {
		panic(fmt.Sprintf("engine: ReduceSubset masks overlap (base %x, free %x)", base, free))
	}
	if top := base | free; top >= v.n {
		panic(fmt.Sprintf("engine: ReduceSubset index %d out of range [0,%d)", top, v.n))
	}
	return v.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		hi := offset + uint64(len(data))
		if hi <= base {
			return acc
		}
		var xlo uint64
		if offset > base {
			xlo = offset - base
		}
		f, ok := minSubsetGE(free, xlo)
		for ok && base+f < hi {
			acc.Add(data[base+f-offset])
			if f == free {
				break
			}
			f = (f - free) & free
		}
		return acc
	})
}

// ShrinkGather shrinks the vector in place to n elements (n <= Len) and
// re-partitions it into parts partitions (<= 0 selects the engine
// default). body receives dst — the vector's first n elements after the
// call — and src, the full previous contents. The two alias the same
// backing array, so body must only assign dst[i] from src positions >= i
// (a forward monotone gather, like a bit-splice collapse); it runs
// single-threaded because the aliasing makes partition-parallel writes
// racy. This is the zero-allocation substrate of in-place conditioning.
func (v *Vector) ShrinkGather(n uint64, parts int, body func(dst, src []float64)) {
	if n > v.n {
		panic(fmt.Sprintf("engine: ShrinkGather to %d exceeds length %d", n, v.n))
	}
	body(v.backing[:n], v.backing[:v.n])
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

// Clone returns a deep copy sharing the pool and partition layout.
func (v *Vector) Clone() *Vector {
	out := NewVector(v.pool, v.n, len(v.parts))
	out.ForPartitions(func(p int, _ uint64, data []float64) {
		copy(data, v.parts[p])
	})
	return out
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
