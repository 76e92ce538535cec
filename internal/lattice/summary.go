package lattice

import (
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/prob"
)

// Summary is the one-sweep digest of the posterior: marginals, entropy,
// MAP, expected-infected and total mass computed together, which is what
// a session reads when it opens.
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
	marg           []float64
	ent, exp, mass prob.Accumulator
	bestState      uint64
	bestMass       float64
}

// Summary computes the posterior digest in a single parallel sweep: each
// partition runs the marginal kernel and one scalar loop back to back.
// Per-partition partials merge in ascending partition order (compensated
// for the additive statistics, lowest-state tie-break for the argmax), so
// the result is deterministic like every other reduction. Every field is
// bit-for-bit the standalone kernel's: the marginals are AddMarginals
// under ReduceVec's merge, and the scalar loop keeps the accumulators and
// state order of Entropy, MAP, ExpectedInfected and Mass.
func (m *Model) Summary() *Summary {
	parts := make([]summaryPartial, m.post.Parts())
	m.post.ForPartitions(func(p int, offset uint64, data []float64) {
		pt := summaryPartial{marg: make([]float64, m.n), bestMass: math.Inf(-1)}
		AddMarginals(offset, data, pt.marg)
		for j, w := range data {
			pt.mass.Add(w)
			if w > pt.bestMass {
				pt.bestState, pt.bestMass = offset+uint64(j), w
			}
			if w > 0 {
				pt.ent.Add(-w * math.Log(w))
				pt.exp.Add(w * float64(bits.OnesCount64(offset+uint64(j))))
			}
		}
		parts[p] = pt
	})

	out := &Summary{Marginals: make([]float64, m.n), MAPMass: math.Inf(-1)}
	margAccs := make([]prob.Accumulator, m.n)
	var ent, exp, mass prob.Accumulator
	for _, pt := range parts {
		for j, x := range pt.marg {
			margAccs[j].Add(x)
		}
		ent.Merge(pt.ent)
		exp.Merge(pt.exp)
		mass.Merge(pt.mass)
		if pt.bestMass > out.MAPMass || (pt.bestMass == out.MAPMass && pt.bestState < uint64(out.MAPState)) { //lint:allow floats exact equality is the deterministic argmax tie-break
			out.MAPState, out.MAPMass = bitvec.Mask(pt.bestState), pt.bestMass
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
