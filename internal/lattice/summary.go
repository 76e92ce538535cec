package lattice

import (
	"math"
	"slices"

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

// Summary computes the posterior digest in a single parallel sweep: each
// partition runs the marginal kernel — unless the last Update's marginals
// are still held, which it takes instead — and the scalar kernel back to
// back. Per-partition partials merge in ascending partition order
// (compensated for the additive statistics, lowest-state tie-break for the
// argmax), so the result is deterministic like every other reduction. The
// marginals are Marginals' (held, or AddMarginals under ReduceVec's merge)
// and ScanDigest keeps the accumulators and state order of Entropy and
// Mass, so those fields are bit-for-bit the standalone methods'.
func (m *Model) Summary() *Summary {
	if m.prior {
		return PriorSummary(m.risks)
	}
	margs, digests := make([][]float64, m.post.Parts()), make([]Digest, m.post.Parts())
	m.settle().ForPartitions(func(p int, offset uint64, data []float64) {
		digests[p] = ScanDigest(offset, data)
		if m.marg == nil {
			margs[p] = make([]float64, m.n)
			AddMarginals(offset, data, margs[p])
		}
	})

	out := &Summary{Marginals: slices.Clone(m.marg), MAPMass: math.Inf(-1)}
	if out.Marginals == nil {
		out.Marginals = MergeVec(margs, m.n, 1)
	}
	var ent, exp, mass prob.Accumulator
	for _, d := range digests {
		ent.Merge(d.Entropy)
		exp.Merge(d.Expected)
		mass.Merge(d.Mass)
		if d.MAPMass > out.MAPMass || (d.MAPMass == out.MAPMass && d.MAPState < uint64(out.MAPState)) { //lint:allow floats exact equality is the deterministic argmax tie-break
			out.MAPState, out.MAPMass = bitvec.Mask(d.MAPState), d.MAPMass
		}
	}
	out.EntropyBits = ent.Value() / math.Ln2
	out.ExpectedInfected = exp.Value()
	out.Mass = mass.Value()
	return out
}
