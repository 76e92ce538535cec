package lattice

import (
	"math"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/prob"
)

// Marginals returns each subject's posterior infection probability,
// P(i infected | data) = Σ_{S ∋ i} π(S). After an Update, a
// ConditionInPlace or a Restore it is a copy of the vector that pass left
// behind, and at the prior the risks: no pass. Once Posterior has handed
// the storage out it is one parallel ReduceVec pass of the halving-fold
// kernel AddMarginals, times the carried scale.
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

// NegMasses returns P(S ∩ cand = ∅ | data) — the posterior mass of the
// states in which the pool would contain no infected specimen, the quantity
// the Bayesian Halving Algorithm drives to ½ — for every candidate pool in
// one parallel sweep over the partitions — the SBGT test-selection scan. Within a
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

// ConditionInPlace collapses subject onto a known status and returns the
// reduced model over the remaining N−1 subjects:
//
//	π'(S') ∝ π(embed(S'))  where embed re-inserts the subject's bit.
//
// Conditioning renormalizes, so the caller should have classified the
// subject at high posterior confidence first. The collapse happens inside
// the receiver's own backing array, with no allocation, and the receiver
// is returned. As in Update, the gather (CollapseBit's kernel in parallel
// waves over the whole lattice; the executors run it on their shards) leaves
// the survivors unscaled, and one pass of AddMarginals partials gives
// their total, whose reciprocal is the new scale, and the marginals, held
// for the Marginals call that follows.
//
// It returns nil when the event has zero posterior mass or only one
// subject remains (conditioning would empty the lattice), with the
// receiver untouched and still usable (core.Session relies on that to
// retry the complementary event): an event that may have zero mass
// (EventMayBeEmpty) is summed with an exact SumWhere pass first.
func (m *Model) ConditionInPlace(subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	bit := uint64(1) << uint(subject)
	var base uint64
	if positive {
		base = bit
	}
	if EventMayBeEmpty(m.marg, subject, positive) && !ValidFactor(1/m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		return SumWhere(offset, data, bit, base)
	})) {
		return nil
	}
	collapseVector(m.post, bit, base)
	m.risks = append(m.risks[:subject], m.risks[subject+1:]...)
	m.n--
	m.hold(AddMarginals)
	return m
}
