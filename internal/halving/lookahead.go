package halving

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/dilution"
)

// Brancher is a Posterior that can look ahead: besides the four reads it
// can say how likely a hypothetical outcome is and hand back a copy of
// itself that has absorbed it. Both cost a pass over the posterior and a
// branch holds a second posterior alive, which is why the capability is
// stated per backend (posterior.Dense has it; the truncated and the
// distributed backends do not) rather than on every Posterior.
type Brancher interface {
	Posterior
	// Predictive returns P(y | data) for a test of pool.
	Predictive(pool bitvec.Mask, y dilution.Outcome) (float64, error)
	// Branch returns an independent posterior with the outcome y on pool
	// absorbed. The receiver is unchanged.
	Branch(pool bitvec.Mask, y dilution.Outcome) (Brancher, error)
}

// SelectLookahead chooses depth pools to run *in the same stage*, before
// any of their outcomes is known — the look-ahead rules of the companion
// paper, which trade a few extra tests for fewer sequential stages (each
// stage is a lab round-trip).
//
// The rule is greedy-marginal: the first pool is the plain halving choice;
// pool t+1 is the halving choice on the *predictive mixture* over the 2^t
// outcome combinations of the already-chosen pools, i.e. it must split well
// in expectation across everything the earlier tests might say. The mixture
// is evaluated exactly by enumerating outcome vectors on branched models,
// weighting each branch by its predictive probability.
//
// Only binary-outcome responses can be enumerated this way; continuous
// responses (CtValue) fall back to their positive/negative dichotomy, which
// is the information the halving criterion consumes anyway. A non-nil error
// is a failed posterior read or branch, as for SelectOn.
func SelectLookahead(m Brancher, depth int, opts Options) ([]Selection, error) {
	if depth < 1 {
		depth = 1
	}
	n := m.N()
	maxPool := opts.MaxPool
	if maxPool <= 0 || maxPool > n {
		maxPool = n
	}

	// branches holds the outcome-conditioned models with their predictive
	// weights; it starts as the single unconditioned posterior.
	type branch struct {
		model  Brancher
		weight float64
	}
	branches := []branch{{model: m, weight: 1}}
	selections := make([]Selection, 0, depth)

	for t := 0; t < depth; t++ {
		// Candidate pools come from the mixture marginals; each branch's
		// own marginals score its singletons below.
		branchMarg := make([][]float64, len(branches))
		marg := make([]float64, n)
		for bi, b := range branches {
			bm, err := b.model.Marginals()
			if err != nil {
				return nil, fmt.Errorf("halving: marginals: %w", err)
			}
			branchMarg[bi] = bm
			for i := range marg {
				marg[i] += b.weight * bm[i]
			}
		}
		order := prefixOrder(marg, maxPool)

		// One shared candidate list, scored per branch the way SelectOn
		// scores it. Scores mix by predictive weight:
		// Σ_b w_b · |P_b(clean) − ½|.
		cands := candidates(n, order)
		scores := make([]float64, len(cands))
		negUnderMix := make([]float64, len(cands))
		for bi, b := range branches {
			masses, err := cleanMasses(b.model, branchMarg[bi], order, cands)
			if err != nil {
				return nil, err
			}
			for ci, mass := range masses {
				scores[ci] += b.weight * math.Abs(mass-0.5)
				negUnderMix[ci] += b.weight * mass
			}
		}
		best := Selection{Score: math.Inf(1)}
		for i, c := range cands {
			if scores[i] < best.Score ||
				//lint:allow floats exact equality is the deterministic argmin tie-break
				(scores[i] == best.Score && c.Count() < best.Pool.Count()) {
				best = Selection{Pool: c, NegMass: negUnderMix[i], Score: scores[i], Scanned: len(cands) * len(branches)}
			}
		}
		selections = append(selections, best)
		if t == depth-1 {
			break
		}

		// Expand every branch by the two outcomes of the chosen pool.
		next := make([]branch, 0, 2*len(branches))
		for _, b := range branches {
			for _, y := range []dilution.Outcome{dilution.Negative, dilution.Positive} {
				w, err := b.model.Predictive(best.Pool, y)
				if err != nil {
					return nil, fmt.Errorf("halving: predictive: %w", err)
				}
				if w*b.weight < 1e-12 {
					continue // outcome (near-)impossible on this branch
				}
				c, err := b.model.Branch(best.Pool, y)
				if err != nil {
					return nil, fmt.Errorf("halving: branch on %v=%v: %w", best.Pool, y, err)
				}
				next = append(next, branch{model: c, weight: b.weight * w})
			}
		}
		if len(next) == 0 {
			break // posterior is degenerate; no further look-ahead possible
		}
		branches = next
	}
	return selections, nil
}
