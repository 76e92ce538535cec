package baseline

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/posterior"
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
	if _, err := New(nil, dilution.Ideal{}); err == nil {
		t.Error("empty cohort accepted")
	}
	if _, err := New(uniform(31, 0.1), dilution.Ideal{}); err == nil {
		t.Error("oversized cohort accepted")
	}
	if _, err := New(uniform(4, 0.1), nil); err == nil {
		t.Error("nil response accepted")
	}
	if _, err := New([]float64{0.5, 1}, dilution.Ideal{}); err == nil {
		t.Error("risk 1 accepted")
	}
}

func TestUpdateErrors(t *testing.T) {
	m, err := New(uniform(4, 0.2), dilution.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(0, dilution.Positive); err == nil {
		t.Error("empty pool accepted")
	}
	if err := m.Update(bitvec.FromIndices(7), dilution.Positive); err == nil {
		t.Error("out-of-cohort pool accepted")
	}
	pm := bitvec.FromIndices(0, 1, 2, 3)
	if err := m.Update(pm, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(pm, dilution.Positive); err == nil {
		t.Error("impossible outcome accepted")
	}
}

func TestBayesByHand(t *testing.T) {
	resp := dilution.Binary{Sens: 0.8, Spec: 0.95}
	m, err := New([]float64{0.3, 0.5}, resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(bitvec.FromIndices(0), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	want := (0.3 * 0.8) / (0.3*0.8 + 0.7*0.05)
	if got := m.Marginals()[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("posterior[0] = %v, want %v", got, want)
	}
}

// TestCrossValidationAgainstEngine is the load-bearing test of this
// package: baseline and engine-backed models must agree on the posterior,
// marginals, neg-masses, entropy, and the halving selection across
// randomized update sequences and response models.
func TestCrossValidationAgainstEngine(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	responses := []dilution.Response{
		dilution.Ideal{},
		dilution.Binary{Sens: 0.92, Spec: 0.985},
		dilution.Hyperbolic{MaxSens: 0.97, Spec: 0.99, D: 0.35},
		dilution.Logistic{MaxSens: 0.98, Spec: 0.99, Alpha: 4, Beta: 1.4},
	}
	r := rng.New(20260705)
	for trial := 0; trial < 12; trial++ {
		n := 6 + r.Intn(5) // 6..10 subjects
		risks := make([]float64, n)
		for i := range risks {
			risks[i] = 0.02 + 0.4*r.Float64()
		}
		resp := responses[trial%len(responses)]
		fast, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := New(risks, resp)
		if err != nil {
			t.Fatal(err)
		}
		// Simulated truth drives a realistic outcome sequence.
		var truth bitvec.Mask
		for i := 0; i < n; i++ {
			if r.Bernoulli(risks[i]) {
				truth = truth.With(i)
			}
		}
		for round := 0; round < 6; round++ {
			sel, err := halving.SelectOn(posterior.FromLattice(fast), halving.Options{MaxPool: 8})
			if err != nil {
				t.Fatal(err)
			}
			// The two implementations may break exact score ties differently
			// (compensated vs naive summation); require the baseline's pick
			// to be an equally good split, then apply the engine's pool to
			// both models so the posteriors stay comparable.
			slowSel := slow.SelectHalving(8)
			if slowSel != sel.Pool {
				a := math.Abs(slow.NegMass(sel.Pool) - 0.5)
				b := math.Abs(slow.NegMass(slowSel) - 0.5)
				if math.Abs(a-b) > 1e-9 {
					t.Fatalf("trial %d round %d: selections %v vs %v differ in quality: %v vs %v",
						trial, round, sel.Pool, slowSel, a, b)
				}
			}
			k := truth.IntersectCount(sel.Pool)
			y := resp.Sample(r, k, sel.Pool.Count())
			errF := fast.Update(sel.Pool, y)
			errS := slow.Update(sel.Pool, y)
			if (errF == nil) != (errS == nil) {
				t.Fatalf("trial %d round %d: error divergence: %v vs %v", trial, round, errF, errS)
			}
			if errF != nil {
				break
			}
		}
		// Posterior agreement.
		for s := uint64(0); s < uint64(1)<<uint(n); s++ {
			a, b := fast.StateMass(bitvec.Mask(s)), slow.StateMass(bitvec.Mask(s))
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
				t.Fatalf("trial %d: state %d mass %v vs %v", trial, s, a, b)
			}
		}
		fm, sm := fast.Marginals(), slow.Marginals()
		for i := range fm {
			if math.Abs(fm[i]-sm[i]) > 1e-9 {
				t.Fatalf("trial %d: marginal[%d] %v vs %v", trial, i, fm[i], sm[i])
			}
		}
		if a, b := fast.Entropy(), slow.Entropy(); math.Abs(a-b) > 1e-7 {
			t.Fatalf("trial %d: entropy %v vs %v", trial, a, b)
		}
		probe := bitvec.Full(n / 2)
		if a, b := fast.NegMass(probe), slow.NegMass(probe); math.Abs(a-b) > 1e-9 {
			t.Fatalf("trial %d: negmass %v vs %v", trial, a, b)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m, err := New(uniform(5, 0.2), dilution.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := c.Update(bitvec.FromIndices(0), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	if got := m.Marginals()[0]; math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("original mutated: %v", got)
	}
	if c.Tests() != 1 || m.Tests() != 0 {
		t.Error("test counters entangled")
	}
}

func TestSelectHalvingSkipsKnownPositives(t *testing.T) {
	// Reproduces the stall bug fixed in internal/halving: a known-positive
	// subject must not force every candidate's clean mass to zero.
	m, err := New(uniform(6, 0.3), dilution.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(bitvec.FromIndices(0), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	sel := m.SelectHalving(0)
	if sel.Has(0) {
		t.Fatalf("selection %v includes the known positive", sel)
	}
	if got := m.NegMass(sel); math.Abs(got-0.5) > 0.2 {
		t.Fatalf("selection clean mass %v far from 1/2", got)
	}
}
