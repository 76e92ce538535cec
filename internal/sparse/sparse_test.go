package sparse

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
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
	if a, b := dense.NegMass(probe), sp.NegMass(probe); math.Abs(a-b) > 1e-10 {
		t.Fatalf("negmass %v vs %v", a, b)
	}
	if sp.Pruned() > 1e-12 {
		t.Fatalf("eps=0 pruned %v", sp.Pruned())
	}
}

func TestPrunedBoundsMarginalError(t *testing.T) {
	// Coarse truncation: marginal error must stay within the reported
	// pruned-mass bound (generous multiple for renormalization effects).
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
		if diff := math.Abs(dm[i] - sm[i]); diff > 10*bound+1e-12 {
			t.Fatalf("marginal[%d] error %v exceeds bound %v", i, diff, bound)
		}
	}
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
