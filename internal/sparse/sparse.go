// Package sparse implements a pruned Bayesian lattice model.
//
// The dense engine (internal/lattice) stores all 2^N state masses, which
// caps one cohort at N = 30. But surveillance posteriors are concentrated:
// at low prevalence, virtually all mass sits on states with a handful of
// positives. This package keeps only states whose mass exceeds a
// truncation threshold, tracking the discarded mass explicitly so every
// answer carries an error bound — the classic state-space-reduction
// counterpart to SBGT's brute-force scaling, and the path to cohorts of
// 40–64 subjects on one machine.
//
// Guarantees: after every operation, Pruned() bounds the total variation
// between the truncated posterior and the exact one *for the same
// observation sequence*, because pruning only ever discards mass
// (renormalization spreads the discard proportionally). Tests
// cross-validate against the dense engine at eps=0 (exact agreement) and
// verify the bound at coarse eps.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/lattice"
	"repro/internal/prob"
)

// MaxSubjects bounds the cohort size of one sparse model: a state mask
// must fit one machine word. (The dense lattice's own bound is
// lattice.MaxSubjects; the cluster driver's is cluster.MaxSubjects.)
const MaxSubjects = 64

// Model is a truncated lattice posterior. Not safe for concurrent use.
type Model struct {
	n      int
	risks  []float64
	resp   dilution.Response
	states []uint64  // retained state masks, ascending
	mass   []float64 // aligned with states; sums to 1
	eps    float64   // relative truncation threshold
	pruned float64   // cumulative discarded mass (pre-renormalization units)
	tests  int
}

// Config configures a sparse model.
type Config struct {
	// Risks holds per-subject prior risks, each in (0,1). Up to 64
	// subjects (a state must fit one machine word).
	Risks []float64
	// Response models the assay. Required.
	Response dilution.Response
	// Eps is the relative truncation threshold: states with mass below
	// Eps times the current maximum state mass are discarded. 0 keeps
	// everything ever enumerated; typical values are 1e-12..1e-8.
	Eps float64
	// MaxStates caps the retained support. New returns an error when the
	// prior support at Eps exceeds it — the signal to raise Eps. 0 means
	// 1 << 22 (≈ 4M states, 64 MB).
	MaxStates int
}

// New enumerates the prior support above the truncation threshold by
// depth-first search with a mass upper bound: extending a partial
// assignment can grow its mass by at most the product of max(1, odds) of
// the unassigned subjects, so subtrees that cannot reach the threshold
// are skipped without being walked. At low prevalence this touches a
// vanishing fraction of the 2^N lattice.
func New(cfg Config) (*Model, error) {
	n := len(cfg.Risks)
	if n == 0 {
		return nil, fmt.Errorf("sparse: empty cohort")
	}
	if n > MaxSubjects {
		return nil, fmt.Errorf("sparse: cohort size %d exceeds max %d", n, MaxSubjects)
	}
	if cfg.Response == nil {
		return nil, fmt.Errorf("sparse: nil response model")
	}
	if cfg.Eps < 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("sparse: eps %v outside [0,1)", cfg.Eps)
	}
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 22
	}
	for i, p := range cfg.Risks {
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("sparse: risk[%d] = %v outside (0,1)", i, p)
		}
	}

	// A partial assignment over subjects 0..i-1 with running mass w can be
	// completed to a full state of mass at most w·suffixMax[i], where
	// suffixMax[i] = Π_{j >= i} max(p_j, 1-p_j). Subtrees whose bound
	// falls below the threshold are skipped unwalked.
	suffixMax := make([]float64, n+1)
	suffixMax[n] = 1
	for i := n - 1; i >= 0; i-- {
		f := cfg.Risks[i]
		if 1-f > f {
			f = 1 - f
		}
		suffixMax[i] = suffixMax[i+1] * f
	}
	// The threshold is relative to the largest achievable state mass,
	// which is exactly suffixMax[0].
	thresh := cfg.Eps * suffixMax[0]

	m := &Model{
		n:     n,
		risks: append([]float64(nil), cfg.Risks...),
		resp:  cfg.Response,
		eps:   cfg.Eps,
	}
	// Iterative DFS over (next subject, state-so-far, exact mass-so-far).
	type frame struct {
		i int
		s uint64
		w float64
	}
	stack := []frame{{0, 0, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.w*suffixMax[f.i] < thresh {
			continue // no completion can reach the threshold
		}
		if f.i == n {
			if len(m.states) >= maxStates {
				return nil, fmt.Errorf("sparse: prior support exceeds MaxStates=%d at eps=%g; raise Eps", maxStates, cfg.Eps)
			}
			m.states = append(m.states, f.s)
			m.mass = append(m.mass, f.w)
			continue
		}
		stack = append(stack,
			frame{f.i + 1, f.s, f.w * (1 - cfg.Risks[f.i])},
			frame{f.i + 1, f.s | 1<<uint(f.i), f.w * cfg.Risks[f.i]},
		)
	}
	if len(m.states) == 0 {
		return nil, fmt.Errorf("sparse: empty support at eps=%g", cfg.Eps)
	}
	sort.Sort(byState{m.states, m.mass})
	total := prob.Sum(m.mass)
	m.pruned = 1 - total // the prior sums to 1 analytically
	if m.pruned < 0 {
		m.pruned = 0
	}
	inv := 1 / total
	for i := range m.mass {
		m.mass[i] *= inv
	}
	return m, nil
}

// byState sorts the aligned (states, mass) arrays by state mask.
type byState struct {
	s []uint64
	w []float64
}

func (b byState) Len() int           { return len(b.s) }
func (b byState) Less(i, j int) bool { return b.s[i] < b.s[j] }
func (b byState) Swap(i, j int) {
	b.s[i], b.s[j] = b.s[j], b.s[i]
	b.w[i], b.w[j] = b.w[j], b.w[i]
}

// N returns the cohort size.
func (m *Model) N() int { return m.n }

// Support returns the number of retained states.
func (m *Model) Support() int { return len(m.states) }

// Pruned returns the cumulative discarded mass: an upper bound on the
// total-variation error of every probability this model reports, relative
// to exact inference on the same observations.
func (m *Model) Pruned() float64 { return m.pruned }

// Tests returns how many outcomes have been absorbed.
func (m *Model) Tests() int { return m.tests }

// Response returns the assay model.
func (m *Model) Response() dilution.Response { return m.resp }

// Risks returns the prior risk vector (a copy).
func (m *Model) Risks() []float64 { return append([]float64(nil), m.risks...) }

// Eps returns the relative truncation threshold.
func (m *Model) Eps() float64 { return m.eps }

// SupportStates returns the retained state masks in ascending order (a
// copy) — with SupportMass, the checkpointing counterpart of Restore.
func (m *Model) SupportStates() []uint64 { return append([]uint64(nil), m.states...) }

// SupportMass returns the retained state masses aligned with
// SupportStates (a copy).
func (m *Model) SupportMass() []float64 { return append([]float64(nil), m.mass...) }

// StateMass returns the retained mass of state s (0 if pruned).
func (m *Model) StateMass(s bitvec.Mask) float64 {
	i := sort.Search(len(m.states), func(i int) bool { return m.states[i] >= uint64(s) })
	if i < len(m.states) && m.states[i] == uint64(s) {
		return m.mass[i]
	}
	return 0
}

// Update folds one pooled-test outcome into the posterior, then prunes
// states that fell below the relative threshold and renormalizes.
func (m *Model) Update(pool bitvec.Mask, y dilution.Outcome) error {
	if pool == 0 {
		return fmt.Errorf("sparse: empty pool")
	}
	if m.n < 64 && !pool.SubsetOf(bitvec.Full(m.n)) {
		return fmt.Errorf("sparse: pool %v outside cohort of %d", pool, m.n)
	}
	size := pool.Count()
	lik := make([]float64, size+1)
	for k := 0; k <= size; k++ {
		l := m.resp.Likelihood(y, k, size)
		if l < 0 || math.IsNaN(l) {
			return fmt.Errorf("sparse: invalid likelihood %v at k=%d", l, k)
		}
		lik[k] = l
	}
	pm := uint64(pool)
	maxMass := 0.0
	var acc prob.Accumulator
	for i, s := range m.states {
		w := m.mass[i] * lik[bits.OnesCount64(s&pm)]
		m.mass[i] = w
		acc.Add(w)
		if w > maxMass {
			maxMass = w
		}
	}
	total := acc.Value()
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("sparse: outcome %v on pool %v has zero total likelihood", y, pool)
	}
	m.prune(maxMass, total)
	m.tests++
	return nil
}

// prune drops states below eps·maxMass and renormalizes, accounting the
// discarded fraction into the cumulative bound.
func (m *Model) prune(maxMass, total float64) {
	thresh := m.eps * maxMass
	keepStates := m.states[:0]
	keepMass := m.mass[:0]
	var dropped prob.Accumulator
	for i, w := range m.mass {
		if w >= thresh && w > 0 {
			keepStates = append(keepStates, m.states[i])
			keepMass = append(keepMass, w)
		} else {
			dropped.Add(w)
		}
	}
	m.states = keepStates
	m.mass = keepMass
	m.pruned += dropped.Value() / total
	kept := total - dropped.Value()
	inv := 1 / kept
	for i := range m.mass {
		m.mass[i] *= inv
	}
}

// Marginals returns each subject's posterior infection probability.
func (m *Model) Marginals() []float64 {
	out := make([]float64, m.n)
	for i, s := range m.states {
		w := m.mass[i]
		for v := s; v != 0; v &= v - 1 {
			out[bits.TrailingZeros64(v)] += w
		}
	}
	return out
}

// NegMass returns P(S ∩ pool = ∅ | data) over the retained support.
func (m *Model) NegMass(pool bitvec.Mask) float64 {
	pm := uint64(pool)
	var acc prob.Accumulator
	for i, s := range m.states {
		if s&pm == 0 {
			acc.Add(m.mass[i])
		}
	}
	return acc.Value()
}

// PrefixNegMasses returns the clean masses of every nested prefix of the
// given subject ordering in one pass over the support — the same
// histogram-by-minimum-rank trick as lattice.PrefixNegMasses, so the
// halving selector runs unchanged on truncated posteriors.
func (m *Model) PrefixNegMasses(order []int) []float64 {
	k := len(order)
	if k == 0 {
		return nil
	}
	var rank [64]uint8
	for i := range rank {
		rank[i] = uint8(k)
	}
	for r, subj := range order {
		if subj < 0 || subj >= m.n {
			panic(fmt.Sprintf("sparse: order subject %d outside cohort of %d", subj, m.n))
		}
		if rank[subj] != uint8(k) {
			panic(fmt.Sprintf("sparse: duplicate subject %d in order", subj))
		}
		rank[subj] = uint8(r)
	}
	hist := make([]float64, k+1)
	for i, s := range m.states {
		rmin := uint8(k)
		for v := s; v != 0; v &= v - 1 {
			if r := rank[bits.TrailingZeros64(v)]; r < rmin {
				rmin = r
			}
		}
		hist[rmin] += m.mass[i]
	}
	return lattice.SuffixCleanMasses(hist, k)
}

// NegMasses scores every candidate pool in one pass over the support.
func (m *Model) NegMasses(cands []bitvec.Mask) []float64 {
	out := make([]float64, len(cands))
	for c, cand := range cands {
		out[c] = m.NegMass(cand)
	}
	return out
}

// BranchMarginals is lattice.Model.BranchMarginals over the retained
// support: the look-ahead marginal read, 2^len(pools) rows of N+1 floats.
// pools and pos must have passed lattice.CheckBranches.
func (m *Model) BranchMarginals(pools []uint64, pos [][]float64) []float64 {
	out := make([]float64, (m.n+1)<<uint(len(pools)))
	m.forRuns(func(offset uint64, data []float64) {
		lattice.AddBranchMarginals(offset, data, pools, pos, out)
	})
	return out
}

// BranchPrefixNegMasses is lattice.Model.BranchPrefixNegMasses over the
// retained support: the look-ahead prefix read, 2^len(pools) rows of
// len(order) clean masses. order must be valid as for PrefixNegMasses.
func (m *Model) BranchPrefixNegMasses(pools []uint64, pos [][]float64, order []int) []float64 {
	tbl, err := lattice.NewRankTable(order, m.n)
	if err != nil {
		panic("sparse: " + err.Error())
	}
	hist := make([]float64, (len(order)+1)<<uint(len(pools)))
	m.forRuns(func(offset uint64, data []float64) {
		tbl.AddBranchMinRankMasses(offset, data, pools, pos, hist)
	})
	return lattice.SuffixCleanMasses(hist, len(order))
}

// forRuns hands the retained support to a lattice kernel as maximal runs
// of consecutive states, each a run (offset, masses) as the dense lattice
// stores them.
func (m *Model) forRuns(kernel func(offset uint64, data []float64)) {
	for i := 0; i < len(m.states); {
		j := i + 1
		for j < len(m.states) && m.states[j] == m.states[j-1]+1 {
			j++
		}
		kernel(m.states[i], m.mass[i:j])
		i = j
	}
}

// Entropy returns the posterior entropy in bits over the retained support.
func (m *Model) Entropy() float64 {
	var acc prob.Accumulator
	for _, p := range m.mass {
		if p > 0 {
			acc.Add(-p * math.Log(p))
		}
	}
	return acc.Value() / math.Ln2
}

// CredibleSet returns the smallest set of retained states whose mass
// reaches level (descending mass, ties by state index) and the mass
// covered. The truncated tail adds at most Pruned() of unaccounted mass.
// It panics when level is outside (0, 1].
func (m *Model) CredibleSet(level float64) ([]bitvec.Mask, float64) {
	if !(level > 0 && level <= 1) {
		panic(fmt.Sprintf("sparse: credible level %v outside (0,1]", level))
	}
	idx := make([]int, len(m.states))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if m.mass[idx[a]] != m.mass[idx[b]] { //lint:allow floats exact inequality is a deterministic sort tie-break, not a numeric test
			return m.mass[idx[a]] > m.mass[idx[b]]
		}
		return m.states[idx[a]] < m.states[idx[b]]
	})
	var out []bitvec.Mask
	var acc prob.Accumulator
	for _, i := range idx {
		if m.mass[i] <= 0 {
			break
		}
		out = append(out, bitvec.Mask(m.states[i]))
		acc.Add(m.mass[i])
		if acc.Value() >= level {
			break
		}
	}
	return out, acc.Value()
}

// Condition collapses subject onto a known status and returns the reduced
// model over the remaining N−1 subjects, mirroring lattice.Condition on
// the retained support: states disagreeing with the conditioning event are
// dropped, the subject's bit is spliced out, and the survivors are
// renormalized. The receiver is unchanged. It returns nil when the event
// has zero retained mass, the subject index is invalid, or only one
// subject remains (conditioning would empty the support). The cumulative
// Pruned() bound carries over: truncation errors made before conditioning
// still bound the conditional posterior for the same observations.
func (m *Model) Condition(subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	bit := uint64(1) << uint(subject)
	low := bit - 1
	out := &Model{
		n:      m.n - 1,
		risks:  make([]float64, 0, m.n-1),
		resp:   m.resp,
		eps:    m.eps,
		pruned: m.pruned,
		tests:  m.tests,
	}
	out.risks = append(out.risks, m.risks[:subject]...)
	out.risks = append(out.risks, m.risks[subject+1:]...)
	var acc prob.Accumulator
	for i, s := range m.states {
		if (s&bit != 0) != positive {
			continue
		}
		// Splice the conditioned bit out; the map is monotone on the
		// surviving states, so the output stays sorted by state mask.
		out.states = append(out.states, (s&low)|((s&^low&^bit)>>1))
		out.mass = append(out.mass, m.mass[i])
		acc.Add(m.mass[i])
	}
	total := acc.Value()
	if !(total > 0) {
		return nil
	}
	inv := 1 / total
	for i := range out.mass {
		out.mass[i] *= inv
	}
	return out
}

// Restore rebuilds a model from a previously captured support — the
// checkpointing hook for sparse-backed sessions. states must be strictly
// ascending masks within the cohort; mass is renormalized on load, and the
// cumulative pruned bound and test counter are taken from the checkpoint.
func Restore(cfg Config, states []uint64, mass []float64, pruned float64, tests int) (*Model, error) {
	n := len(cfg.Risks)
	if n == 0 || n > MaxSubjects {
		return nil, fmt.Errorf("sparse: cohort size %d invalid", n)
	}
	if cfg.Response == nil {
		return nil, fmt.Errorf("sparse: nil response model")
	}
	if cfg.Eps < 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("sparse: eps %v outside [0,1)", cfg.Eps)
	}
	for i, p := range cfg.Risks {
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("sparse: risk[%d] = %v outside (0,1)", i, p)
		}
	}
	if len(states) == 0 || len(states) != len(mass) {
		return nil, fmt.Errorf("sparse: support has %d states but %d masses", len(states), len(mass))
	}
	if !(pruned >= 0 && pruned <= 1) {
		return nil, fmt.Errorf("sparse: pruned bound %v outside [0,1]", pruned)
	}
	if tests < 0 {
		return nil, fmt.Errorf("sparse: negative test count %d", tests)
	}
	full := ^uint64(0)
	if n < 64 {
		full = uint64(1)<<uint(n) - 1
	}
	var acc prob.Accumulator
	for i, s := range states {
		if s&^full != 0 {
			return nil, fmt.Errorf("sparse: state %#x outside cohort of %d", s, n)
		}
		if i > 0 && states[i-1] >= s {
			return nil, fmt.Errorf("sparse: states not strictly ascending at %d", i)
		}
		w := mass[i]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("sparse: invalid mass %v", w)
		}
		acc.Add(w)
	}
	total := acc.Value()
	if !(total > 0) {
		return nil, fmt.Errorf("sparse: restored support has zero mass")
	}
	m := &Model{
		n:      n,
		risks:  append([]float64(nil), cfg.Risks...),
		resp:   cfg.Response,
		states: append([]uint64(nil), states...),
		mass:   append([]float64(nil), mass...),
		eps:    cfg.Eps,
		pruned: pruned,
		tests:  tests,
	}
	inv := 1 / total
	for i := range m.mass {
		m.mass[i] *= inv
	}
	return m, nil
}
