package sparse

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/prob"
	"repro/internal/rng"
)

func uniform(n int, p float64) []float64 {
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = p
	}
	return rs
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty cohort", Config{Response: dilution.Ideal{}}},
		{"too large", Config{Risks: make([]float64, 65), Response: dilution.Ideal{}}},
		{"nil response", Config{Risks: uniform(4, 0.1)}},
		{"bad eps", Config{Risks: uniform(4, 0.1), Response: dilution.Ideal{}, Eps: 1.5}},
		{"bad risk", Config{Risks: []float64{0.5, 0}, Response: dilution.Ideal{}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestExactWhenEpsZero(t *testing.T) {
	// eps = 0 retains the whole lattice: must agree exactly with the
	// dense engine across an update sequence.
	pool := engine.NewPool(2)
	defer pool.Close()
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.25, 0.12}
	resp := dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.99, D: 0.3}
	dense, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := New(Config{Risks: risks, Response: resp, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Support() != 256 {
		t.Fatalf("eps=0 support = %d, want full 256", sp.Support())
	}
	r := rng.New(1)
	for round := 0; round < 6; round++ {
		pm := bitvec.Mask(r.Uint64() & 0xff)
		if pm == 0 {
			pm = bitvec.FromIndices(0)
		}
		y := dilution.Negative
		if r.Bool() {
			y = dilution.Positive
		}
		errD := dense.Update(pm, y)
		errS := sp.Update(pm, y)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("round %d: error divergence %v vs %v", round, errD, errS)
		}
	}
	dm, sm := dense.Marginals(), sp.Marginals()
	for i := range dm {
		if math.Abs(dm[i]-sm[i]) > 1e-10 {
			t.Fatalf("marginal[%d]: dense %v sparse %v", i, dm[i], sm[i])
		}
	}
	if a, b := dense.Entropy(), sp.Entropy(); math.Abs(a-b) > 1e-8 {
		t.Fatalf("entropy %v vs %v", a, b)
	}
	probe := bitvec.FromIndices(1, 3, 5)
	if a, b := dense.NegMasses([]bitvec.Mask{probe})[0], sp.NegMass(probe); math.Abs(a-b) > 1e-10 {
		t.Fatalf("negmass %v vs %v", a, b)
	}
	if sp.Pruned() > 1e-12 {
		t.Fatalf("eps=0 pruned %v", sp.Pruned())
	}
}

func TestPrunedBoundsMarginalError(t *testing.T) {
	// Coarse truncation: marginal error must stay within the reported
	// pruned-mass bound.
	pool := engine.NewPool(2)
	defer pool.Close()
	risks := uniform(10, 0.06)
	resp := dilution.Binary{Sens: 0.93, Spec: 0.98}
	dense, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := New(Config{Risks: risks, Response: resp, Eps: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Support() >= 1024 {
		t.Fatalf("coarse eps retained the whole lattice (%d states)", sp.Support())
	}
	seq := []struct {
		pm bitvec.Mask
		y  dilution.Outcome
	}{
		{bitvec.FromIndices(0, 1, 2, 3, 4), dilution.Positive},
		{bitvec.FromIndices(0, 1), dilution.Negative},
		{bitvec.FromIndices(5, 6, 7), dilution.Negative},
	}
	for _, s := range seq {
		if err := dense.Update(s.pm, s.y); err != nil {
			t.Fatal(err)
		}
		if err := sp.Update(s.pm, s.y); err != nil {
			t.Fatal(err)
		}
	}
	bound := sp.Pruned()
	if bound <= 0 {
		t.Fatal("no pruning recorded at coarse eps")
	}
	dm, sm := dense.Marginals(), sp.Marginals()
	for i := range dm {
		if diff := math.Abs(dm[i] - sm[i]); diff > bound+1e-12 {
			t.Fatalf("marginal[%d] error %v exceeds bound %v", i, diff, bound)
		}
	}
}

// probeSingles tests each subject of tested alone three times, all
// positive, under Binary{0.95, 0.99}, and checks every marginal against the
// exact one within Pruned(). Single-subject tests keep the posterior a
// product, so the exact marginal of a tested subject of risk p is
// p·0.95³ / (p·0.95³ + (1−p)·0.01³), and an untested one keeps its risk.
func probeSingles(t *testing.T, risks []float64, eps float64, tested []int) {
	t.Helper()
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	sp, err := New(Config{Risks: risks, Response: resp, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	exact := append([]float64(nil), risks...)
	for _, i := range tested {
		for range 3 {
			if err := sp.Update(bitvec.FromIndices(i), dilution.Positive); err != nil {
				t.Fatal(err)
			}
		}
		pos, neg := risks[i]*math.Pow(0.95, 3), (1-risks[i])*math.Pow(0.01, 3)
		exact[i] = pos / (pos + neg)
	}
	bound := sp.Pruned()
	if !(bound >= 0 && bound <= 1) {
		t.Fatalf("Pruned() = %v outside [0, 1]", bound)
	}
	for i, m := range sp.Marginals() {
		if diff := math.Abs(m - exact[i]); diff > bound+1e-12 {
			t.Fatalf("marginal[%d] = %v, exact %v: error %v exceeds Pruned() %v", i, m, exact[i], diff, bound)
		}
	}
}

// TestPrunedBoundsDroppedTruth: a subject whose prior positive states all
// fall under eps is then confirmed positive three times. The support never
// held the truth, so the sparse marginal stays near 0 while the exact one
// is 0.9988; Pruned() must grow with the evidence to cover that error.
func TestPrunedBoundsDroppedTruth(t *testing.T) {
	risks := uniform(16, 0.02)
	risks[5] = 0.001
	probeSingles(t, risks, 0.01, []int{5})
}

// TestPrunedBoundsShippedEps: at the shipped eps 1e-9 the N=40 prior
// support holds no state with all seven later-confirmed positives, so
// their sparse marginals fall short of the exact 0.99994.
func TestPrunedBoundsShippedEps(t *testing.T) {
	probeSingles(t, uniform(40, 0.02), 1e-9, []int{0, 1, 2, 3, 4, 5, 6})
}

func TestLargeCohortBeyondDenseLimit(t *testing.T) {
	// 48 subjects at 1% prevalence: impossible densely (2^48 states),
	// trivial sparsely.
	risks := uniform(48, 0.01)
	sp, err := New(Config{Risks: risks, Response: dilution.Ideal{}, Eps: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Support() > 1<<21 {
		t.Fatalf("support unexpectedly large: %d", sp.Support())
	}
	marg := sp.Marginals()
	for i, g := range marg {
		if math.Abs(g-0.01) > 1e-6 {
			t.Fatalf("prior marginal[%d] = %v", i, g)
		}
	}
	// A negative pool over half the cohort zeroes those marginals.
	half := bitvec.Full(24)
	if err := sp.Update(half, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	marg = sp.Marginals()
	for i := 0; i < 24; i++ {
		if marg[i] != 0 {
			t.Fatalf("marginal[%d] = %v after ideal negative", i, marg[i])
		}
	}
	for i := 24; i < 48; i++ {
		if math.Abs(marg[i]-0.01) > 1e-6 {
			t.Fatalf("untested marginal[%d] = %v", i, marg[i])
		}
	}
	// Support shrank (states intersecting the pool died).
	if sp.Support() > 1<<20 {
		t.Fatalf("support after collapse: %d", sp.Support())
	}
}

func TestExtremePriors64Subjects(t *testing.T) {
	// 64 subjects at 0.01% risk: masses of multi-positive states are
	// astronomically small, but peak-relative pruning keeps everything
	// retained within eps of the maximum, so no quantity underflows to
	// garbage.
	risks := uniform(64, 1e-4)
	sp, err := New(Config{Risks: risks, Response: dilution.Ideal{}, Eps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	marg := sp.Marginals()
	for i, g := range marg {
		if math.Abs(g-1e-4) > 1e-8 {
			t.Fatalf("prior marginal[%d] = %v", i, g)
		}
	}
	if h := sp.Entropy(); h <= 0 || math.IsNaN(h) {
		t.Fatalf("entropy = %v", h)
	}
	// A positive on a huge pool still renormalizes cleanly.
	if err := sp.Update(bitvec.Full(64), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	marg = sp.Marginals()
	var sum float64
	for _, g := range marg {
		if g < 0 || g > 1 || math.IsNaN(g) {
			t.Fatalf("posterior marginal %v invalid", g)
		}
		sum += g
	}
	// Exactly one infected in expectation (ideal positive on everyone,
	// tiny priors make multi-positive states negligible).
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("E[|S|] = %v, want ≈ 1", sum)
	}
}

func TestMaxStatesEnforced(t *testing.T) {
	risks := uniform(20, 0.4) // diffuse prior: huge support
	_, err := New(Config{Risks: risks, Response: dilution.Ideal{}, Eps: 0, MaxStates: 1000})
	if err == nil {
		t.Fatal("MaxStates overflow accepted")
	}
}

func TestUpdateErrors(t *testing.T) {
	sp, err := New(Config{Risks: uniform(6, 0.1), Response: dilution.Ideal{}, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Update(0, dilution.Positive); err == nil {
		t.Error("empty pool accepted")
	}
	if err := sp.Update(bitvec.FromIndices(7), dilution.Positive); err == nil {
		t.Error("out-of-cohort pool accepted")
	}
	pm := bitvec.Full(6)
	if err := sp.Update(pm, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	if err := sp.Update(pm, dilution.Positive); err == nil {
		t.Error("impossible outcome accepted")
	}
	if sp.Tests() != 1 {
		t.Errorf("Tests = %d", sp.Tests())
	}
}

func TestStateMassLookup(t *testing.T) {
	sp, err := New(Config{Risks: []float64{0.3, 0.4}, Response: dilution.Ideal{}, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[bitvec.Mask]float64{
		0: 0.7 * 0.6, 1: 0.3 * 0.6, 2: 0.7 * 0.4, 3: 0.3 * 0.4,
	}
	for s, w := range want {
		if got := sp.StateMass(s); math.Abs(got-w) > 1e-12 {
			t.Errorf("StateMass(%v) = %v, want %v", s, got, w)
		}
	}
}

func TestNegMassesMatchesSingles(t *testing.T) {
	sp, err := New(Config{Risks: uniform(8, 0.1), Response: dilution.Ideal{}, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	cands := []bitvec.Mask{bitvec.FromIndices(0), bitvec.FromIndices(1, 2), bitvec.Full(8)}
	batch := sp.NegMasses(cands)
	for i, c := range cands {
		if single := sp.NegMass(c); math.Abs(batch[i]-single) > 1e-15 {
			t.Errorf("candidate %v: %v vs %v", c, batch[i], single)
		}
	}
}

func TestAccessors(t *testing.T) {
	resp := dilution.Binary{Sens: 0.9, Spec: 0.98}
	sp, err := New(Config{Risks: uniform(5, 0.1), Response: resp, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sp.N() != 5 {
		t.Errorf("N = %d", sp.N())
	}
	if sp.Response().Name() != resp.Name() {
		t.Errorf("Response = %s", sp.Response().Name())
	}
}

func TestSparsePrefixNegMassesMatchesScan(t *testing.T) {
	sp, err := New(Config{Risks: []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08}, Response: dilution.Binary{Sens: 0.93, Spec: 0.99}, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Update(bitvec.FromIndices(0, 1, 2), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	order := []int{3, 1, 5, 0}
	fast := sp.PrefixNegMasses(order)
	var prefix bitvec.Mask
	cands := make([]bitvec.Mask, 0, len(order))
	for _, s := range order {
		prefix = prefix.With(s)
		cands = append(cands, prefix)
	}
	slow := sp.NegMasses(cands)
	for i := range cands {
		if math.Abs(fast[i]-slow[i]) > 1e-12 {
			t.Fatalf("prefix %d: %v vs %v", i, fast[i], slow[i])
		}
	}
	if got := sp.PrefixNegMasses(nil); got != nil {
		t.Errorf("empty order returned %v", got)
	}
	for name, bad := range map[string][]int{"dup": {1, 1}, "range": {9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s order did not panic", name)
				}
			}()
			sp.PrefixNegMasses(bad)
		}()
	}
}

func TestSparseCredibleSet(t *testing.T) {
	sp, err := New(Config{Risks: []float64{0.4, 0.2}, Response: dilution.Ideal{}, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Masses: {}: .48, {0}: .32, {1}: .12, {0,1}: .08.
	set, mass := sp.CredibleSet(0.5)
	if len(set) != 2 || set[0] != 0 || set[1] != bitvec.FromIndices(0) {
		t.Fatalf("50%% set = %v", set)
	}
	if math.Abs(mass-0.8) > 1e-12 {
		t.Fatalf("covered %v", mass)
	}
	if set, _ := sp.CredibleSet(1); len(set) != 4 {
		t.Fatalf("100%% set = %v", set)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad level did not panic")
		}
	}()
	sp.CredibleSet(0)
}

func TestSupportGrowsWithEps(t *testing.T) {
	risks := uniform(16, 0.05)
	var prev int
	for _, eps := range []float64{1e-2, 1e-4, 1e-8, 0} {
		sp, err := New(Config{Risks: risks, Response: dilution.Ideal{}, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if sp.Support() < prev {
			t.Fatalf("support shrank as eps tightened: %d -> %d at eps=%g", prev, sp.Support(), eps)
		}
		prev = sp.Support()
	}
	if prev != 1<<16 {
		t.Fatalf("eps=0 support = %d, want 65536", prev)
	}
}

// TestPrunedBoundsTotalVariation is the property behind Pruned(): on
// random campaigns at N ≤ 20 under every shipped assay model and at eps
// 1e-2, 1e-4 and 1e-9, after every update and every collapse, the total
// variation between the sparse posterior and the exact dense one is at
// most Pruned() — with no multiple, only a 1e-12 allowance for the
// rounding of the 2^N-term sum. Outcomes are drawn from a true state, so
// the evidence may keep pointing at states the support has dropped; an
// outcome the support cannot explain at all (zero likelihood on every
// retained state) ends that campaign with the sparse model's error, which
// is its honest answer.
func TestPrunedBoundsTotalVariation(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	responses := []dilution.Response{
		dilution.Ideal{},
		dilution.Binary{Sens: 0.95, Spec: 0.99},
		dilution.Hyperbolic{MaxSens: 0.98, Spec: 0.995, D: 0.25},
		dilution.Logistic{MaxSens: 0.99, Spec: 0.99, Alpha: 4, Beta: 1.5},
		dilution.Subsample{Q: 0.95, Spec: 0.99},
		dilution.DefaultCt(),
	}
	campaigns := 3
	if testing.Short() {
		campaigns = 1
	}
	r := rng.New(18)
	var worst float64
	var checks, pruned, cut int
	for _, resp := range responses {
		for _, eps := range []float64{1e-2, 1e-4, 1e-9} {
			for c := range campaigns {
				n := 6 + r.Intn(11) // 6..16, and one campaign a model at 20
				if c == 0 && eps == 1e-4 {
					n = 20
				}
				st := tvCampaign(t, pool, resp, eps, n, r)
				worst, checks, pruned = max(worst, st.excess), checks+st.checks, pruned+st.pruned
				if st.cut {
					cut++
				}
			}
		}
	}
	t.Logf("%d checks, %d with Pruned() > 0, %d campaigns cut short by an outcome the support could not explain; largest TV − Pruned() %.3g",
		checks, pruned, cut, worst)
	if pruned == 0 {
		t.Fatal("no campaign pruned anything: the bound was never exercised")
	}
}

// tvStats is what one campaign of TestPrunedBoundsTotalVariation checked.
type tvStats struct {
	checks, pruned int     // bound checks made, and how many found Pruned() > 0
	excess         float64 // the largest TV − Pruned() seen (≤ 1e-12, or the test fails)
	cut            bool    // an outcome the support could not explain ended the campaign
}

// tvCampaign runs one random campaign at the given size and checks the
// bound after every operation.
func tvCampaign(t *testing.T, pool *engine.Pool, resp dilution.Response, eps float64, n int, r *rng.Source) tvStats {
	t.Helper()
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.02 + 0.18*r.Float64()
	}
	var truth bitvec.Mask
	for i, p := range risks {
		if r.Float64() < p {
			truth = truth.With(i)
		}
	}
	dense, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Release()
	sp, err := New(Config{Risks: risks, Response: resp, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	var st tvStats
	check := func(what string) {
		tv, bound := totalVariation(dense, sp), sp.Pruned()
		if tv-bound > 1e-12 {
			t.Fatalf("%s, N=%d, eps %g, after %s: TV %v exceeds Pruned() %v", resp.Name(), n, eps, what, tv, bound)
		}
		st.checks++
		st.excess = max(st.excess, tv-bound)
		if bound > 0 {
			st.pruned++
		}
	}
	check("the prior")
	for step := range 10 {
		var pm bitvec.Mask
		for pm == 0 {
			pm = bitvec.Mask(r.Uint64()) & bitvec.Full(dense.N())
			if step%2 == 0 { // every other pool is small, as late halving pools are
				pm &= bitvec.Mask(r.Uint64()) & bitvec.Mask(r.Uint64())
			}
		}
		y := resp.Sample(r, (pm & truth).Count(), pm.Count())
		if err := sp.Update(pm, y); err != nil {
			st.cut = true
			return st
		}
		if err := dense.Update(pm, y); err != nil {
			t.Fatalf("dense refused an outcome sparse accepted: %v", err)
		}
		check(fmt.Sprintf("update %d", step))
		if step%4 == 3 && dense.N() > 2 {
			// Collapse a subject onto its true status, as a session calls one.
			i := r.Intn(dense.N())
			next := sp.Condition(i, truth.Has(i))
			if next == nil {
				continue // the support holds no state of that status
			}
			if dense.ConditionInPlace(i, truth.Has(i)) == nil {
				t.Fatal("dense refused a collapse sparse made")
			}
			sp, truth = next, truth&bitvec.Full(i)|(truth>>1)&^bitvec.Full(i)
			check("a collapse")
		}
	}
	return st
}

// totalVariation returns ½ Σ_S |p(S) − q(S)| between the dense posterior
// and the sparse one.
func totalVariation(dense *lattice.Model, sp *Model) float64 {
	exact := dense.Posterior().Slice()
	states, mass := sp.SupportStates(), sp.SupportMass()
	var sum prob.Accumulator
	j := 0
	for s, p := range exact {
		q := 0.0
		if j < len(states) && states[j] == uint64(s) {
			q = mass[j]
			j++
		}
		sum.Add(math.Abs(p - q))
	}
	return sum.Value() / 2
}
