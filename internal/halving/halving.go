// Package halving implements the Bayesian Halving Algorithm and its
// look-ahead extensions — SBGT's test-selection kernel.
//
// The halving rule is the lattice-order analogue of binary search: among
// admissible pools A, pick the one whose clean-pool posterior mass
// P(S ∩ A = ∅ | data) is closest to ½, so that either outcome of the test
// removes close to one bit of classification uncertainty. The Biostatistics
// companion paper proves this rule converges at an optimal exponential rate
// even under strong dilution.
//
// Candidate generation exploits the order structure: subjects are ranked by
// marginal posterior risk, and the nested prefix pools of that ranking
// sweep the clean mass monotonically from P(top-1 clean) down toward 0, so
// the ½-crossing is bracketed by two adjacent prefixes. All prefixes are
// scored by ONE histogram pass (PrefixNegMasses) and the singleton
// fallbacks for free from the marginals — two lattice passes total,
// independent of the candidate count, and one when the caller already
// holds the marginals and its Posterior answers Marginals from them (as a
// session's does). An optional local search then
// perturbs the winning pool one subject at a time (one batched NegMasses
// sweep).
//
// The package also provides the comparison strategies the evaluation plots
// against (random pools, individual testing, Dorfman blocks) behind one
// Strategy interface.
package halving

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitvec"
)

// Options tunes the halving selector.
type Options struct {
	// MaxPool caps the number of specimens mixed into one physical test.
	// Assay dilution limits make this 8–32 in practice. <= 0 means N.
	MaxPool int
	// LocalSearch enables the single-swap refinement pass around the best
	// prefix pool (the A3 ablation toggles this).
	LocalSearch bool
}

// Selection describes one chosen pool.
type Selection struct {
	Pool    bitvec.Mask // subjects to mix into the test
	NegMass float64     // P(pool clean | data) at selection time
	Score   float64     // |NegMass − ½|; lower is a better split
	Scanned int         // candidate pools evaluated
}

// Posterior is the read surface the halving algorithm needs. It is
// fallible: backends whose reads can fail (the TCP cluster driver) report
// transport errors directly instead of smuggling them through panics, and
// infallible backends (dense lattice, truncated sparse) simply always
// return nil errors. Every posterior.Model satisfies this interface.
type Posterior interface {
	N() int
	Marginals() ([]float64, error)
	NegMasses(cands []bitvec.Mask) ([]float64, error)
	PrefixNegMasses(order []int) ([]float64, error)
}

// SelectOn runs the Bayesian Halving Algorithm on any Posterior. It never
// returns an empty pool; for a fully certain posterior it returns the best
// available split even though that split is far from ½. A non-nil error is
// a failed posterior read (e.g. a lost executor), not a selection quality
// problem; the returned Selection is zero in that case.
func SelectOn(m Posterior, opts Options) (Selection, error) {
	n := m.N()
	maxPool := opts.MaxPool
	if maxPool <= 0 || maxPool > n {
		maxPool = n
	}

	marg, err := m.Marginals()
	if err != nil {
		return Selection{}, fmt.Errorf("halving: marginals: %w", err)
	}
	order := prefixOrder(marg, maxPool)
	cands := candidates(make([]bitvec.Mask, 0, len(order)+n), n, order)
	masses, err := cleanMasses(m, marg, order, cands)
	if err != nil {
		return Selection{}, err
	}
	best := pickBest(cands, masses)
	best.Scanned = len(cands)

	if opts.LocalSearch {
		best, err = localSearch(m, best, maxPool)
		if err != nil {
			return Selection{}, err
		}
	}
	return best, nil
}

// prefixOrder ranks the pool-eligible subjects for prefix candidates.
//
// A pool is clean only if every member is negative, so its clean mass is
// bounded above by 1 − max_{i∈A} marginal_i: subjects with marginal ≥ ½
// can never appear in a pool that splits at ½. The prefix order is the
// sub-½ subjects ranked by marginal descending (each added member moves
// the clean mass down the most per specimen), capped at the pool-size
// limit. Ties break by index so selection is deterministic.
func prefixOrder(marg []float64, maxPool int) []int {
	order := make([]int, 0, len(marg))
	for i := range marg {
		if marg[i] < 0.5 {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(marg[b], marg[a]) })
	if len(order) > maxPool {
		order = order[:maxPool]
	}
	return order
}

// candidates appends to cands the pools one selection scores: the nested
// prefixes of order, then every singleton. Singletons keep selection sane
// when all subjects are already probably-positive. The only possible
// duplicate — the size-1 prefix — is skipped in the singleton sweep.
func candidates(cands []bitvec.Mask, n int, order []int) []bitvec.Mask {
	var prefix, firstPrefix bitvec.Mask
	for _, subj := range order {
		prefix = prefix.With(subj)
		cands = append(cands, prefix)
	}
	if len(order) > 0 {
		firstPrefix = cands[len(cands)-len(order)]
	}
	for i := 0; i < n; i++ {
		if c := bitvec.FromIndices(i); c != firstPrefix {
			cands = append(cands, c)
		}
	}
	return cands
}

// cleanMasses scores candidates(len(marg), order) on m with two lattice
// passes total, independent of the candidate count: the prefixes come from
// one PrefixNegMasses histogram pass, and every singleton's clean mass is
// 1 − marginal (free, from the marginals already in hand).
func cleanMasses(m Posterior, marg []float64, order []int, cands []bitvec.Mask) ([]float64, error) {
	masses := make([]float64, len(cands))
	if len(order) > 0 {
		prefixMass, err := m.PrefixNegMasses(order)
		if err != nil {
			return nil, fmt.Errorf("halving: prefix scan: %w", err)
		}
		copy(masses, prefixMass)
	}
	for i := len(order); i < len(cands); i++ {
		masses[i] = 1 - marg[cands[i].Lowest()]
	}
	return masses, nil
}

// pickBest returns the candidate whose neg-mass is closest to ½; ties
// resolve to the smaller pool (cheaper test), then lower mask.
func pickBest(cands []bitvec.Mask, masses []float64) Selection {
	best := Selection{Score: math.Inf(1)}
	for i, c := range cands {
		score := math.Abs(masses[i] - 0.5)
		if score < best.Score ||
			//lint:allow floats exact equality is the deterministic argmin tie-break
			(score == best.Score && (c.Count() < best.Pool.Count() ||
				(c.Count() == best.Pool.Count() && c < best.Pool))) {
			best = Selection{Pool: c, NegMass: masses[i], Score: score}
		}
	}
	return best
}

// localSearch tries replacing each member of the incumbent pool with each
// non-member (bounded swap neighbourhood), plus single additions and
// removals within the pool-size cap, accepting the best improvement. One
// round only: the prefix seed is already near the optimum, and each round
// costs a full lattice sweep.
func localSearch(m Posterior, best Selection, maxPool int) (Selection, error) {
	n := m.N()
	var cands []bitvec.Mask
	// Additions.
	if best.Pool.Count() < maxPool {
		for i := 0; i < n; i++ {
			if !best.Pool.Has(i) {
				cands = append(cands, best.Pool.With(i))
			}
		}
	}
	// Removals.
	if best.Pool.Count() > 1 {
		for _, i := range best.Pool.Indices() {
			cands = append(cands, best.Pool.Without(i))
		}
	}
	// Swaps.
	for _, out := range best.Pool.Indices() {
		for in := 0; in < n; in++ {
			if !best.Pool.Has(in) {
				cands = append(cands, best.Pool.Without(out).With(in))
			}
		}
	}
	if len(cands) == 0 {
		return best, nil
	}
	masses, err := m.NegMasses(cands)
	if err != nil {
		return Selection{}, fmt.Errorf("halving: candidate scan: %w", err)
	}
	cand := pickBest(cands, masses)
	cand.Scanned = best.Scanned + len(cands)
	if cand.Score < best.Score {
		return cand, nil
	}
	best.Scanned = cand.Scanned
	return best, nil
}

// String renders a selection for logs.
func (s Selection) String() string {
	return fmt.Sprintf("pool %v (|A|=%d, clean mass %.4f, scanned %d)", s.Pool, s.Pool.Count(), s.NegMass, s.Scanned)
}
