package lattice

import (
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/prob"
)

// subLatticeMinPool is the dense/sub-lattice crossover: clean-mass
// queries enumerate the 2^(N−g) clean sub-lattice only when the pool has
// at least this many subjects; below it they take the full sequential
// sweep. The default of 1 (always sub-lattice) comes from the committed
// pool-size × N microbenchmark sweep in bench_test.go
// (BenchmarkNegMassCrossover): on the reference hardware the masked walk
// wins even at g=1 (~1.3×), because halving the visited states beats the
// dense scan's branch-per-state even before the exponential reduction
// kicks in. The tunable is kept for hardware where wide vector sweeps
// beat strided walks — and as the A5 ablation's dense arm.
var subLatticeMinPool = 1

// SubLatticeMinPool returns the current dense/sub-lattice crossover.
func SubLatticeMinPool() int { return subLatticeMinPool }

// SetSubLatticeMinPool tunes the dense/sub-lattice crossover and returns
// the previous value. Pools with at least k subjects take the sub-lattice
// walk; a large k forces the dense scan everywhere (the ablation arm).
// k < 1 is clamped to 1.
func SetSubLatticeMinPool(k int) int {
	if k < 1 {
		k = 1
	}
	prev := subLatticeMinPool
	subLatticeMinPool = k
	return prev
}

// Marginals returns each subject's posterior infection probability,
// P(i infected | data) = Σ_{S ∋ i} π(S), computed for all N subjects in a
// single parallel ReduceVec pass of the halving-fold kernel AddMarginals.
func (m *Model) Marginals() []float64 {
	return m.post.ReduceVec(m.n, func(_ int, offset uint64, data []float64, out []float64) {
		AddMarginals(offset, data, out)
	})
}

// MarginalsWalk is the reference marginal kernel (full per-state bit
// walk). It exists for the A5 structure-aware kernel ablation; results
// agree with Marginals up to accumulation-order rounding.
func (m *Model) MarginalsWalk() []float64 {
	return m.post.ReduceVec(m.n, func(_ int, offset uint64, data []float64, out []float64) {
		addMarginalsWalk(offset, data, out)
	})
}

// NegMass returns P(S ∩ pool = ∅ | data): the posterior mass of the up-set
// of states in which the pool would contain no infected specimen. This is
// the quantity the Bayesian Halving Algorithm drives to ½.
//
// The clean states form the 2^(N−g) sub-lattice of subsets of ^pool, so
// for pools at or above the SubLatticeMinPool crossover the kernel
// enumerates only that sub-lattice via engine.Vector.ReduceSubset;
// smaller pools keep the full sequential sweep, which wins on bandwidth
// when the state reduction is small.
func (m *Model) NegMass(pool bitvec.Mask) float64 {
	pm := uint64(pool)
	if pool.Count() >= subLatticeMinPool {
		return m.post.ReduceSubset(0, uint64(bitvec.Full(m.n))&^pm)
	}
	return m.negMassDense(pm)
}

// negMassDense is the full-sweep NegMass kernel: the small-pool fallback
// and the bit-for-bit reference for the sub-lattice walk (both visit the
// clean states in increasing index order with the same accumulator).
func (m *Model) negMassDense(pm uint64) float64 {
	return m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for j := range data {
			if (offset+uint64(j))&pm == 0 {
				acc.Add(data[j])
			}
		}
		return acc
	})
}

// negMassesTile is the candidate-scan tile length in states: 4096
// float64s = 32 KiB, sized so one tile stays L1-resident while every
// candidate re-reads it.
const negMassesTile = 1 << 12

// negMassesTiled scores every candidate over one partition in L1-sized
// tiles: the tile loop is outermost and the candidate loop re-reads the
// resident tile, so the partition's memory traffic is paid once per tile
// rather than once per candidate. Per-candidate tile partials accumulate
// into out in fixed tile order, keeping the result deterministic.
func negMassesTiled(offset uint64, data []float64, masks []uint64, out []float64) {
	for t0 := 0; t0 < len(data); t0 += negMassesTile {
		t1 := t0 + negMassesTile
		if t1 > len(data) {
			t1 = len(data)
		}
		tile := data[t0:t1]
		toff := offset + uint64(t0)
		for c, pm := range masks {
			var acc float64
			for j := range tile {
				if (toff+uint64(j))&pm == 0 {
					acc += tile[j]
				}
			}
			out[c] += acc
		}
	}
}

// NegMasses evaluates NegMass for every candidate pool in one parallel
// sweep over the partitions — the SBGT test-selection scan. Within a
// partition the scan is tiled (see negMassesTiled): a 32 KiB tile stays
// L1-resident across all candidates, so a partition larger than L2 is no
// longer streamed from memory once per candidate — the batching win over
// the baseline's C full-vector passes, made cache-oblivious to the
// candidate count.
func (m *Model) NegMasses(cands []bitvec.Mask) []float64 {
	if len(cands) == 0 {
		return nil
	}
	masks := make([]uint64, len(cands))
	for i, c := range cands {
		masks[i] = uint64(c)
	}
	return m.post.ReduceVec(len(cands), func(_ int, offset uint64, data []float64, out []float64) {
		negMassesTiled(offset, data, masks, out)
	})
}

// NegMassesUntiled is the pre-tiling candidate scan (candidate-outer loop
// re-reading the whole partition per candidate). It exists for the A5
// structure-aware kernel ablation; results agree with NegMasses up to
// accumulation-order rounding.
func (m *Model) NegMassesUntiled(cands []bitvec.Mask) []float64 {
	if len(cands) == 0 {
		return nil
	}
	masks := make([]uint64, len(cands))
	for i, c := range cands {
		masks[i] = uint64(c)
	}
	return m.post.ReduceVec(len(cands), func(_ int, offset uint64, data []float64, out []float64) {
		for c, pm := range masks {
			var acc float64
			for j := range data {
				if (offset+uint64(j))&pm == 0 {
					acc += data[j]
				}
			}
			out[c] = acc
		}
	})
}

// PrefixNegMasses returns the clean-pool masses of every nested prefix of
// the given subject ordering: element i is P(S ∩ {order[0..i]} = ∅ | data).
//
// The prefixes are nested, so one lattice pass suffices: a state is clean
// for prefix i exactly when the minimum order-rank among its infected
// subjects exceeds i. The pass histograms posterior mass by that minimum
// rank; suffix sums of the histogram are the prefix masses. This replaces
// the len(order) separate scans a direct implementation needs and is the
// algorithmic core of SBGT's fast test selection. Subjects may appear in
// order at most once; duplicates panic.
func (m *Model) PrefixNegMasses(order []int) []float64 {
	k := len(order)
	if k == 0 {
		return nil
	}
	tbl, err := NewRankTable(order, m.n)
	if err != nil {
		panic("lattice: " + err.Error())
	}
	hist := m.post.ReduceVec(k+1, func(_ int, offset uint64, data []float64, out []float64) {
		tbl.AddMinRankMasses(offset, data, out)
	})
	// neg[i] = Σ_{r > i} hist[r]: mass whose first-ranked infected subject
	// lies beyond the prefix.
	neg := make([]float64, k)
	var acc prob.Accumulator
	for i := k - 1; i >= 0; i-- {
		acc.Add(hist[i+1])
		neg[i] = acc.Value()
	}
	return neg
}

// IntersectDist returns the posterior distribution of k = |S ∩ pool|, the
// number of infected specimens the pool would capture: element k holds
// P(|S ∩ pool| = k | data) for k in [0, |pool|].
//
// Unlike NegMass, the distribution's support is the whole lattice (every
// state contributes to some slot), so there is no sub-lattice to restrict
// the pass to; it stays a single full sweep. Its dominant consumer,
// Predictive, no longer routes through it: flat-tail responses collapse
// to one clean-sub-lattice query and general responses fold the
// likelihood table inline (see Predictive), so this materialized form is
// for callers that need the full distribution.
func (m *Model) IntersectDist(pool bitvec.Mask) []float64 {
	pm := uint64(pool)
	size := pool.Count()
	return m.post.ReduceVec(size+1, func(_ int, offset uint64, data []float64, out []float64) {
		for j := range data {
			if w := data[j]; w != 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
				out[bits.OnesCount64((offset+uint64(j))&pm)] += w
			}
		}
	})
}

// Predictive returns the probability of observing outcome y on the given
// pool under the current posterior and the model's response:
// P(y | data) = Σ_k P(y | k, |pool|) · P(|S ∩ pool| = k | data).
//
// When the likelihood table is flat for k ≥ 1 — the response cannot tell
// one infected specimen from many, as with the Binary and Ideal assay
// models — the sum telescopes to lik₀·P(k=0) + lik₁·(1 − P(k=0)), and
// P(k=0) is a clean-sub-lattice query: the whole predictive costs one
// 2^(N−g) walk instead of a 2^N pass. Dilution-sensitive responses take
// a single fused pass that folds the likelihood table over the intersect
// count inline, replacing the former IntersectDist + dot-product pair.
func (m *Model) Predictive(pool bitvec.Mask, y dilution.Outcome) float64 {
	size := pool.Count()
	lik := make([]float64, size+1)
	for k := 0; k <= size; k++ {
		lik[k] = m.resp.Likelihood(y, k, size)
	}
	pm := uint64(pool)
	if size >= subLatticeMinPool {
		flat := true
		for k := 2; k <= size; k++ {
			if lik[k] != lik[1] { //lint:allow floats detects an exactly count-independent likelihood table, not a numeric tolerance test
				flat = false
				break
			}
		}
		if flat {
			nm := m.post.ReduceSubset(0, uint64(bitvec.Full(m.n))&^pm)
			return lik[0]*nm + lik[1]*(1-nm)
		}
	}
	return m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for j := range data {
			if w := data[j]; w != 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
				acc.Add(w * lik[bits.OnesCount64((offset+uint64(j))&pm)])
			}
		}
		return acc
	})
}

// Entropy returns the Shannon entropy of the posterior in bits: the
// residual classification uncertainty. An ideal halving test removes one
// bit per update.
func (m *Model) Entropy() float64 {
	nats := m.post.ReduceSum(func(_ int, _ uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for _, p := range data {
			if p > 0 {
				acc.Add(-p * math.Log(p))
			}
		}
		return acc
	})
	return nats / math.Ln2
}

// MAP returns the maximum-a-posteriori lattice state and its mass. Ties
// resolve to the lowest state index, deterministically.
func (m *Model) MAP() (bitvec.Mask, float64) {
	type best struct {
		state uint64
		mass  float64
	}
	parts := make([]best, m.post.Parts())
	m.post.ForPartitions(func(p int, offset uint64, data []float64) {
		b := best{mass: math.Inf(-1)}
		for j := range data {
			if data[j] > b.mass {
				b = best{state: offset + uint64(j), mass: data[j]}
			}
		}
		parts[p] = b
	})
	top := best{mass: math.Inf(-1)}
	for _, b := range parts {
		if b.mass > top.mass || (b.mass == top.mass && b.state < top.state) { //lint:allow floats exact equality is the deterministic argmax tie-break
			top = b
		}
	}
	return bitvec.Mask(top.state), top.mass
}

// Mass returns the total posterior mass (≈1 between updates; exposed for
// invariant checks and tests).
func (m *Model) Mass() float64 { return m.post.Sum() }

// ExpectedInfected returns E[|S|], the posterior expected number of
// infected subjects, in one pass.
func (m *Model) ExpectedInfected() float64 {
	return m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for j := range data {
			if w := data[j]; w != 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
				acc.Add(w * float64(bits.OnesCount64(offset+uint64(j))))
			}
		}
		return acc
	})
}

// Condition collapses subject onto a known status and returns the reduced
// model over the remaining N−1 subjects:
//
//	π'(S') ∝ π(embed(S'))  where embed re-inserts the subject's bit.
//
// Conditioning renormalizes, so the caller should have classified the
// subject at high posterior confidence first. The receiver is unchanged.
// It returns nil if the conditioning event has zero posterior mass or the
// model has only one subject left (conditioning would empty the lattice).
func (m *Model) Condition(subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	nn := m.n - 1
	low := uint64(1)<<uint(subject) - 1 // bits below the removed subject
	bit := uint64(1) << uint(subject)
	out := &Model{
		n:     nn,
		risks: make([]float64, 0, nn),
		resp:  m.resp,
		post:  m.postLike(uint64(1) << uint(nn)),
		tests: m.tests,
	}
	out.risks = append(out.risks, m.risks[:subject]...)
	out.risks = append(out.risks, m.risks[subject+1:]...)
	src := m.post
	out.post.ForPartitions(func(_ int, offset uint64, data []float64) {
		for j := range data {
			sp := offset + uint64(j)
			old := (sp & low) | ((sp &^ low) << 1)
			if positive {
				old |= bit
			}
			data[j] = src.At(old)
		}
	})
	if total := out.post.Normalize(); !(total > 0) {
		return nil
	}
	return out
}

// ConditionInPlace is the zero-allocation form of Condition: it collapses
// subject onto a known status inside the receiver's own backing array and
// returns the receiver, now a model over the remaining N−1 subjects. The
// gather is CollapseBit over the whole lattice with factor 1 — the kernel
// the cluster executors run on their shards — followed by Normalize.
//
// Like Condition it returns nil when the event has zero posterior mass or
// only one subject remains — but because the gather destroys the old
// contents, the event mass is preflighted with an exact sub-lattice
// reduction first, so on nil the receiver is untouched and still usable
// (core.Session relies on that to retry the complementary event).
func (m *Model) ConditionInPlace(subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	bit := uint64(1) << uint(subject)
	var base uint64
	if positive {
		base = bit
	}
	// Preflight: the surviving states form the sub-lattice {base | f : f ⊆
	// ^bit}, so their mass is one ReduceSubset away. Rejecting here keeps
	// the receiver intact.
	if mass := m.post.ReduceSubset(base, uint64(bitvec.Full(m.n))&^bit); !(mass > 0) {
		return nil
	}
	nn := m.n - 1
	m.post.ShrinkGather(uint64(1)<<uint(nn), m.post.Parts(), func(_, src []float64) {
		CollapseBit(0, src, bit, base, 1)
	})
	m.post.Normalize()
	m.risks = append(m.risks[:subject], m.risks[subject+1:]...)
	m.n = nn
	return m
}

// postLike allocates a posterior vector of the given length on the same
// pool, keeping the partition count roughly matched to the parent.
func (m *Model) postLike(n uint64) *engine.Vector {
	parts := m.post.Parts()
	if uint64(parts) > n {
		parts = int(n)
	}
	return engine.NewVector(m.post.Pool(), n, parts)
}
