package lattice

import (
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/prob"
)

// The reference and ablation forms of the shipped kernels. They left the
// API (nothing in production called them) and stay here as the oracles the
// kernels are tested against and the old arms of the go test -bench
// comparisons in bench_test.go. They read the settled vector (m.settle()):
// the references keep the posterior itself in storage, normalized after
// every reweighting, which is what the carried scale is compared with.

// cloneModel is an independent copy of m: its stored posterior in the same
// partitions, its pending scale and its held marginals. A test that
// perturbs or conditions one model and compares it with another, or reads
// a settled posterior without settling m, starts from it.
func cloneModel(m *Model) *Model {
	c := *m
	c.risks, c.marg = slices.Clone(m.risks), slices.Clone(m.marg)
	c.post = engine.VectorOver(m.post.Pool(), make([]float64, m.post.Len()), m.post.Parts())
	c.post.ForPartitions(func(p int, _ uint64, data []float64) {
		_, src := m.post.Partition(p)
		copy(data, src)
	})
	return &c
}

// normalize is the eager normalisation — one Sum pass, one Scale pass —
// and returns the pre-scale total; a degenerate total leaves v unchanged.
func normalize(v *engine.Vector) float64 {
	total := v.Sum()
	if ValidFactor(1 / total) {
		v.Scale(1 / total)
	}
	return total
}

// updateEager is Update as it was before the model carried its normaliser:
// the fused MulLikelihood pass, then a Scale pass by 1/total. It panics
// where Update reports an error.
func updateEager(m *Model, pool bitvec.Mask, y dilution.Outcome) {
	lik, err := LikelihoodTable(m.resp, y, pool.Count())
	if err != nil {
		panic(err)
	}
	post := m.settle()
	total := post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		return MulLikelihood(offset, data, uint64(pool), lik, make([]float64, m.n))
	})
	if !ValidFactor(1 / total) {
		panic("lattice: zero-likelihood outcome in updateEager")
	}
	post.Scale(1 / total)
	m.prior, m.marg = false, nil
	m.tests++
}

// conditionEager is ConditionInPlace as it was before the normaliser was
// carried: CollapseBit, then Normalize. It returns nil, receiver untouched, on a zero-mass event.
func conditionEager(m *Model, subject int, positive bool) *Model {
	bit := uint64(1) << uint(subject)
	var base uint64
	if positive {
		base = bit
	}
	post := m.settle()
	mass := post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		return SumWhere(offset, data, bit, base)
	})
	if !(mass > 0) || m.n <= 1 {
		return nil
	}
	collapseVector(post, bit, base)
	normalize(post)
	m.risks = append(m.risks[:subject], m.risks[subject+1:]...)
	m.n, m.prior, m.marg = m.n-1, false, nil
	return m
}

// updateTwoPass is the unfused Update: a reweight pass, then a separate
// sum-and-scale. It agrees with Update up to one rounding and panics where
// Update reports an error.
func updateTwoPass(m *Model, pool bitvec.Mask, y dilution.Outcome) {
	size := pool.Count()
	lik := make([]float64, size+1)
	for k := 0; k <= size; k++ {
		lik[k] = m.resp.Likelihood(y, k, size)
	}
	pm := uint64(pool)
	m.settle().ForPartitions(func(_ int, offset uint64, data []float64) {
		for j := range data {
			s := offset + uint64(j)
			data[j] *= lik[bits.OnesCount64(s&pm)]
		}
	})
	if total := normalize(m.post); !(total > 0) {
		panic("lattice: zero-likelihood outcome in updateTwoPass")
	}
	m.prior, m.marg = false, nil
	m.tests++
}

// marginalsWalk is the marginal pass as a full per-state bit walk; it
// agrees with Marginals up to accumulation-order rounding.
func marginalsWalk(m *Model) []float64 {
	return m.settle().ReduceVec(m.n, func(_ int, offset uint64, data []float64, out []float64) {
		var acc prob.Accumulator
		addMarginalsWalk(offset, data, out, &acc)
	})
}

// negMassesUntiled is the pre-tiling candidate scan (candidate-outer loop
// re-reading the whole partition per candidate); it agrees with NegMasses
// up to accumulation-order rounding.
func negMassesUntiled(m *Model, cands []bitvec.Mask) []float64 {
	return m.settle().ReduceVec(len(cands), func(_ int, offset uint64, data []float64, out []float64) {
		for c, pm := range cands {
			var acc float64
			for j := range data {
				if (offset+uint64(j))&uint64(pm) == 0 {
					acc += data[j]
				}
			}
			out[c] = acc
		}
	})
}

// intersectDist is the posterior distribution of k = |S ∩ pool|: element k
// holds P(|S ∩ pool| = k | data). Predictive is defined as its dot product
// with the likelihood table.
func intersectDist(m *Model, pool bitvec.Mask) []float64 {
	pm := uint64(pool)
	return m.settle().ReduceVec(pool.Count()+1, func(_ int, offset uint64, data []float64, out []float64) {
		for j, w := range data {
			out[bits.OnesCount64((offset+uint64(j))&pm)] += w
		}
	})
}

// branchOracle is the look-ahead reads by definition, one state at a time:
// state s weighs w·Π_j (pool j positive ? pos[j][k_j] : 1 − pos[j][k_j]) in
// branch b, and row b gathers its joint marginals and weight, and its
// prefix clean masses P(S ∩ order[0..i] = ∅, b).
func branchOracle(m *Model, pools []uint64, pos [][]float64, order []int) (marg, clean []float64) {
	n, k, rows := m.n, len(order), 1<<uint(len(pools))
	marg, clean = make([]float64, rows*(n+1)), make([]float64, rows*k)
	post := m.Posterior()
	for s := uint64(0); s < post.Len(); s++ {
		w := post.At(s)
		for b := 0; b < rows; b++ {
			f := w
			for j, pm := range pools {
				p := pos[j][bits.OnesCount64(s&pm)]
				if b>>uint(j)&1 == 0 {
					p = 1 - p
				}
				f *= p
			}
			marg[b*(n+1)+n] += f
			for i := 0; i < n; i++ {
				if s>>uint(i)&1 == 1 {
					marg[b*(n+1)+i] += f
				}
			}
			for i := range order {
				if s&uint64(bitvec.FromIndices(order[:i+1]...)) == 0 {
					clean[b*k+i] += f
				}
			}
		}
	}
	return marg, clean
}

// expectedInfectedScan is E[|S|] as a per-state popcount pass, the oracle
// the marginals' sum is checked against.
func expectedInfectedScan(m *Model) float64 {
	return m.settle().ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for j, w := range data {
			if w != 0 {
				acc.Add(w * float64(bits.OnesCount64(offset+uint64(j))))
			}
		}
		return acc
	})
}

// conditionGather is the allocating conditioning path: a fresh vector
// gathers each surviving state by re-inserting the subject's bit into its
// index, then normalizes. ConditionInPlace must agree with it state for
// state; the receiver is unchanged.
func conditionGather(m *Model, subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	nn := m.n - 1
	low := uint64(1)<<uint(subject) - 1 // bits below the removed subject
	bit := uint64(1) << uint(subject)
	parts := m.post.Parts()
	if uint64(parts) > uint64(1)<<uint(nn) {
		parts = 1 << uint(nn)
	}
	out := &Model{
		n:     nn,
		risks: make([]float64, 0, nn),
		resp:  m.resp,
		post:  engine.VectorOver(m.post.Pool(), make([]float64, 1<<nn), parts),
		tests: m.tests,
		scale: 1,
	}
	out.risks = append(out.risks, m.risks[:subject]...)
	out.risks = append(out.risks, m.risks[subject+1:]...)
	src := m.settle()
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
	if total := normalize(out.post); !(total > 0) {
		return nil
	}
	return out
}

// mulLikelihoodPerState is the update pass as it was before the block
// folds: every state multiplied by its factor and added, compensated, one
// at a time. It returns the products and their total.
func mulLikelihoodPerState(offset uint64, data []float64, pool uint64, lik []float64) ([]float64, prob.Accumulator) {
	out := make([]float64, len(data))
	var acc prob.Accumulator
	for j, w := range data {
		out[j] = w * lik[bits.OnesCount64((offset+uint64(j))&pool)]
		acc.Add(out[j])
	}
	return out, acc
}

// sumWhereWalk is SumWhere as the masked per-state walk, whatever the mask.
func sumWhereWalk(offset uint64, data []float64, mask, base uint64) prob.Accumulator {
	var acc prob.Accumulator
	for j, w := range data {
		if (offset+uint64(j))&mask == base {
			acc.Add(w)
		}
	}
	return acc
}
