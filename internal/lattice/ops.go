package lattice

import (
	"math"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/prob"
)

// Marginals returns each subject's posterior infection probability,
// P(i infected | data) = Σ_{S ∋ i} π(S). Straight after an Update it is a
// copy of the vector that update's pass left behind, and at the prior the
// risks: no pass. Otherwise — after a conditioning, a Restore, or once
// Posterior has handed the storage out — it is one parallel ReduceVec pass
// of the halving-fold kernel AddMarginals, times the carried scale.
func (m *Model) Marginals() []float64 {
	if m.prior {
		return m.Risks()
	}
	if m.marg != nil {
		return slices.Clone(m.marg)
	}
	marg := m.post.ReduceVec(m.n, func(_ int, offset uint64, data []float64, out []float64) {
		AddMarginals(offset, data, out)
	})
	Scale(marg, m.scale)
	return marg
}

// NegMass returns P(S ∩ pool = ∅ | data): the posterior mass of the up-set
// of states in which the pool would contain no infected specimen. This is
// the quantity the Bayesian Halving Algorithm drives to ½.
//
// The clean states form the 2^(N−g) sub-lattice of subsets of ^pool, and
// the kernel enumerates only that sub-lattice (engine.Vector.ReduceSubset):
// on the reference hardware the masked walk beats a full filtered sweep
// even at g=1 (~1.3×, BenchmarkNegMassCrossover), because halving the
// visited states outweighs the sweep's contiguous reads before the
// exponential reduction kicks in.
func (m *Model) NegMass(pool bitvec.Mask) float64 {
	return m.settle().ReduceSubset(0, uint64(bitvec.Full(m.n))&^uint64(pool))
}

// NegMasses evaluates NegMass for every candidate pool in one parallel
// sweep over the partitions — the SBGT test-selection scan. Within a
// partition the scan is tiled (see AddCleanMasses): a 32 KiB tile stays
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
	return m.settle().ReduceVec(len(cands), func(_ int, offset uint64, data []float64, out []float64) {
		AddCleanMasses(offset, data, masks, out)
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
// order at most once; duplicates panic. At the prior the prefix masses are
// products of the risks' complements (PriorPrefixNegMasses): no pass.
func (m *Model) PrefixNegMasses(order []int) []float64 {
	k := len(order)
	if k == 0 {
		return nil
	}
	tbl, err := NewRankTable(order, m.n)
	if err != nil {
		panic("lattice: " + err.Error())
	}
	if m.prior {
		return PriorPrefixNegMasses(m.risks, order)
	}
	hist := m.post.ReduceVec(k+1, func(_ int, offset uint64, data []float64, out []float64) {
		tbl.AddMinRankMasses(offset, data, out)
	})
	Scale(hist, m.scale)
	return SuffixCleanMasses(hist, k)
}

// BranchMarginals is the look-ahead marginal read: for every outcome
// branch b of the pools (bit j of b set: pool j reads positive, with
// P(positive | k infected) = pos[j][k]), row b of the result — N+1 floats —
// holds P(S ∋ i, outcomes b | data) at [i] and P(outcomes b | data) at [N].
// A branch posterior is this one times at most len(pools) table lookups
// per state, so all 2^len(pools) rows come from one pass over the
// posterior itself (AddBranchMarginals), with no copy of it. pools and pos
// must have passed CheckBranches.
func (m *Model) BranchMarginals(pools []uint64, pos [][]float64) []float64 {
	return m.branchRead((m.n+1)<<uint(len(pools)), func(offset uint64, data, out []float64) {
		AddBranchMarginals(offset, data, pools, pos, out)
	})
}

// BranchPrefixNegMasses is the look-ahead prefix read: row b of the result
// — len(order) floats — holds P(S ∩ {order[0..i]} = ∅, outcomes b | data)
// at [i], for every outcome branch b of the pools as in BranchMarginals.
// One pass histograms every branch by minimum order-rank
// (AddBranchMinRankMasses). order must be valid as for PrefixNegMasses.
func (m *Model) BranchPrefixNegMasses(pools []uint64, pos [][]float64, order []int) []float64 {
	tbl, err := NewRankTable(order, m.n)
	if err != nil {
		panic("lattice: " + err.Error())
	}
	hist := m.branchRead((len(order)+1)<<uint(len(pools)), func(offset uint64, data, out []float64) {
		tbl.AddBranchMinRankMasses(offset, data, pools, pos, out)
	})
	return SuffixCleanMasses(hist, len(order))
}

// branchRead runs a branch kernel over the partitions one after another
// on the calling goroutine, each into one zeroed partial, and merges the
// partials component-wise in partition order with compensated accumulators
// — ReduceVec's merge — times the carried scale. Its scratch is one
// partial and the accumulators, however many partitions the posterior
// has: a branch row set outgrows a partition's share of the lattice, so
// per-partition partials would cost more than the posterior they read.
func (m *Model) branchRead(width int, kernel func(offset uint64, data, out []float64)) []float64 {
	part := make([]float64, width)
	accs := make([]prob.Accumulator, width)
	for p := 0; p < m.post.Parts(); p++ {
		clear(part)
		offset, data := m.post.Partition(p)
		kernel(offset, data, part)
		for j, x := range part {
			accs[j].Add(x)
		}
	}
	for j := range part {
		part[j] = accs[j].Value() * m.scale
	}
	return part
}

// Entropy returns the Shannon entropy of the posterior in bits: the
// residual classification uncertainty. An ideal halving test removes one
// bit per update.
func (m *Model) Entropy() float64 {
	if m.prior {
		return PriorEntropy(m.risks)
	}
	nats := m.settle().ReduceSum(func(_ int, _ uint64, data []float64) prob.Accumulator {
		return EntropyNats(data)
	})
	return nats / math.Ln2
}

// Mass returns the total posterior mass (≈1 between updates; exposed for
// invariant checks and tests).
func (m *Model) Mass() float64 { return m.settle().Sum() }

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
	return m.Clone().ConditionInPlace(subject, positive)
}

// ConditionInPlace is the zero-allocation form of Condition: it collapses
// subject onto a known status inside the receiver's own backing array and
// returns the receiver, now a model over the remaining N−1 subjects. The
// gather is CollapseBit over the whole lattice — the kernel the cluster
// executors run on their shards — with 1/(the preflight mass) as its factor,
// so the survivors come out normalized in the one pass.
//
// Like Condition it returns nil when the event has zero posterior mass or
// only one subject remains — but because the gather destroys the old
// contents, the event mass is preflighted with an exact SumWhere pass over
// the kept stretches first, so on nil the receiver is untouched and still
// usable (core.Session relies on that to retry the complementary event).
func (m *Model) ConditionInPlace(subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	bit := uint64(1) << uint(subject)
	var base uint64
	if positive {
		base = bit
	}
	// Preflight, of stored mass: the pending scale cancels in the factor.
	factor := 1 / m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		return SumWhere(offset, data, bit, base)
	})
	if !ValidFactor(factor) {
		return nil
	}
	nn := m.n - 1
	m.post.ShrinkGather(uint64(1)<<uint(nn), m.post.Parts(), func(_, src []float64) {
		CollapseBit(0, src, bit, base, factor)
	})
	m.scale, m.prior, m.marg = 1, false, nil
	m.risks = append(m.risks[:subject], m.risks[subject+1:]...)
	m.n = nn
	return m
}
