package halving

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitvec"
)

// Branches is the posterior surface look-ahead selection reads: the two
// selection reads of a Posterior, taken jointly with the outcomes of pools
// already chosen for the stage. Branch b of t pools is the joint outcome in
// which pool j reads positive exactly when bit j of b is set; its weight is
// P(outcomes b | data), and the 2^t weights sum to 1. With no pools there
// is one branch, of weight 1, and the reads are Marginals and
// PrefixNegMasses. posterior.Branches supplies them for every backend.
type Branches interface {
	N() int
	// BranchMarginals returns 2^len(pools) rows of N+1 floats: row b holds
	// P(S ∋ i, outcomes b | data) at [i] and the weight of branch b at [N].
	BranchMarginals(pools []bitvec.Mask) ([]float64, error)
	// BranchPrefixNegMasses returns 2^len(pools) rows of len(order)
	// floats: row b holds P(S ∩ {order[0..i]} = ∅, outcomes b | data) at [i].
	BranchPrefixNegMasses(pools []bitvec.Mask, order []int) ([]float64, error)
}

// SelectLookahead chooses depth pools to run *in the same stage*, before
// any of their outcomes is known — the look-ahead rules of the companion
// paper, which trade a few extra tests for fewer sequential stages (each
// stage is a lab round-trip).
//
// The rule is greedy-marginal: the first pool is the plain halving choice;
// pool t+1 is the halving choice on the *predictive mixture* over the 2^t
// outcome branches of the already-chosen pools: it must split well in
// expectation across everything the earlier tests might say. A candidate
// scores Σ_b w_b·|P_b(clean) − ½| = Σ_b |P(clean, b) − w_b/2| over the
// branches b of weight w_b, read jointly (Branches) so that an impossible
// branch weighs nothing. Candidates are the halving ones of the posterior
// itself, whose marginals are the mixture of every branch's (stageOrder).
//
// A branch is the joint positive/negative outcome of its pools, weighted by
// P(positive | k infected) = dilution.PosProb, so a continuous readout
// (CtValue) enters through its censoring probability, not a density. A
// non-nil error is a failed posterior read, as for SelectOn.
func SelectLookahead(m Branches, depth int, opts Options) ([]Selection, error) {
	depth = max(depth, 1)
	n := m.N()
	maxPool := opts.MaxPool
	if maxPool <= 0 || maxPool > n {
		maxPool = n
	}
	var (
		marg   []float64
		order  []int
		cands  []bitvec.Mask
		scores []float64 // Σ_b |P(clean, b) − w_b/2| per candidate, then Σ_b P(clean, b)
	)
	pools := make([]bitvec.Mask, 0, depth)
	sels := make([]Selection, 0, depth)
	for t := 0; t < depth; t++ {
		joint, err := m.BranchMarginals(pools)
		if err != nil {
			return nil, fmt.Errorf("halving: branch marginals: %w", err)
		}
		if t == 0 {
			marg = joint[:n]
			order = prefixOrder(marg, maxPool)
			cands = make([]bitvec.Mask, 0, len(order)+n)
			scores = make([]float64, 2*cap(cands))
		} else {
			order = stageOrder(order[:0], marg, pools, maxPool)
		}
		cands = candidates(cands[:0], n, order)
		clean, err := m.BranchPrefixNegMasses(pools, order)
		if err != nil {
			return nil, fmt.Errorf("halving: branch prefix scan: %w", err)
		}
		score, mix := scores[:len(cands)], scores[len(cands):2*len(cands)]
		clear(score)
		clear(mix)
		k := len(order)
		for b := 0; b < 1<<uint(t); b++ {
			row, w := joint[b*(n+1):b*(n+1)+n], joint[b*(n+1)+n]
			for i := range cands {
				var c float64 // P(cands[i] clean, outcomes b)
				if i < k {
					c = clean[b*k+i]
				} else {
					c = w - row[cands[i].Lowest()]
				}
				score[i] += math.Abs(c - w/2)
				mix[i] += c
			}
		}
		best := Selection{Score: math.Inf(1)}
		for i, c := range cands {
			if score[i] < best.Score ||
				//lint:allow floats exact equality is the deterministic argmin tie-break
				(score[i] == best.Score && c.Count() < best.Pool.Count()) {
				best = Selection{Pool: c, NegMass: mix[i], Score: score[i], Scanned: len(cands) << uint(t)}
			}
		}
		sels = append(sels, best)
		pools = append(pools, best.Pool)
	}
	return sels, nil
}

// stageOrder is prefixOrder for a stage's later pools: the posterior's own
// marginals rank the subjects, but subjects whose marginals agree to 1e-12
// tie, and a tie goes to the subject in fewer of the stage's pools, then to
// the lower index. The marginals of exchangeable subjects differ only in
// their last ulps, and without the rule those would decide whether pool
// t+1 nests inside pool t — a pool whose outcome is then already half
// known — or reaches the subjects no pool of the stage has tested.
// The order is appended to order, which must be empty.
func stageOrder(order []int, marg []float64, pools []bitvec.Mask, maxPool int) []int {
	var in [64]int // how many of the stage's pools hold each subject
	for _, p := range pools {
		for v := p; v != 0; v &= v - 1 {
			in[v.Lowest()]++
		}
	}
	for i, m := range marg {
		if m < 0.5 {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(math.Round(marg[b]*1e12), math.Round(marg[a]*1e12)); c != 0 {
			return c
		}
		return cmp.Compare(in[a], in[b])
	})
	return order[:min(len(order), maxPool)]
}
