package lattice

import (
	"math"

	"repro/internal/bitvec"
	"repro/internal/prob"
)

// Summary is the one-sweep digest of the posterior: marginals, entropy,
// MAP, expected-infected and total mass computed together, which is what
// a session reads when it opens (from the risks alone: PriorSummary).
type Summary struct {
	// Marginals is each subject's posterior infection probability.
	Marginals []float64
	// EntropyBits is the Shannon entropy of the posterior in bits.
	EntropyBits float64
	// MAPState is the maximum-a-posteriori state (ties to the lowest
	// state index) and MAPMass its posterior mass.
	MAPState bitvec.Mask
	MAPMass  float64
	// ExpectedInfected is E[|S|], the expected number of infected.
	ExpectedInfected float64
	// Mass is the total posterior mass (≈1 between updates).
	Mass float64
}

// summaryPartial is one partition's contribution to the fused summary.
type summaryPartial struct {
	marg []float64
	Digest
}

// Summary computes the posterior digest in a single parallel sweep: each
// partition runs the marginal kernel and the scalar kernel back to back.
// Per-partition partials merge in ascending partition order (compensated
// for the additive statistics, lowest-state tie-break for the argmax), so
// the result is deterministic like every other reduction. The marginals
// are AddMarginals under ReduceVec's merge and ScanDigest keeps the
// accumulators and state order of Entropy and Mass, so those fields are
// bit-for-bit the standalone methods'.
func (m *Model) Summary() *Summary {
	if m.prior {
		return PriorSummary(m.risks)
	}
	parts := make([]summaryPartial, m.post.Parts())
	m.settle().ForPartitions(func(p int, offset uint64, data []float64) {
		marg := make([]float64, m.n)
		AddMarginals(offset, data, marg)
		parts[p] = summaryPartial{marg, ScanDigest(offset, data)}
	})

	out := &Summary{Marginals: make([]float64, m.n), MAPMass: math.Inf(-1)}
	margAccs := make([]prob.Accumulator, m.n)
	var ent, exp, mass prob.Accumulator
	for _, pt := range parts {
		for j, x := range pt.marg {
			margAccs[j].Add(x)
		}
		ent.Merge(pt.Entropy)
		exp.Merge(pt.Expected)
		mass.Merge(pt.Mass)
		if pt.MAPMass > out.MAPMass || (pt.MAPMass == out.MAPMass && pt.MAPState < uint64(out.MAPState)) { //lint:allow floats exact equality is the deterministic argmax tie-break
			out.MAPState, out.MAPMass = bitvec.Mask(pt.MAPState), pt.MAPMass
		}
	}
	for j := range margAccs {
		out.Marginals[j] = margAccs[j].Value()
	}
	out.EntropyBits = ent.Value() / math.Ln2
	out.ExpectedInfected = exp.Value()
	out.Mass = mass.Value()
	return out
}
