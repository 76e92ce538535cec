package lattice

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/prob"
)

func TestNegMassPrior(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.1, 0.2, 0.3, 0.4}
	m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Ideal{}})
	// Under the independent prior, P(pool clean) = Π (1 - p_i) over the pool.
	cases := []struct {
		pm   bitvec.Mask
		want float64
	}{
		{bitvec.FromIndices(0), 0.9},
		{bitvec.FromIndices(0, 1), 0.9 * 0.8},
		{bitvec.FromIndices(0, 1, 2, 3), 0.9 * 0.8 * 0.7 * 0.6},
	}
	cands := []bitvec.Mask{0}
	for _, c := range cases {
		cands = append(cands, c.pm)
	}
	got := m.NegMasses(cands)
	if math.Abs(got[0]-1) > 1e-12 {
		t.Errorf("NegMass(empty) = %v, want 1", got[0])
	}
	for i, c := range cases {
		if math.Abs(got[i+1]-c.want) > 1e-12 {
			t.Errorf("NegMass(%v) = %v, want %v", c.pm, got[i+1], c.want)
		}
	}
}

// TestNegMassesMatchesNegMass: a candidate's clean mass (its NegMass, as
// halving.Selection names it) does not depend on the batch it is scored
// in — the tiled scan of five pools gives each the value it gets alone.
func TestNegMassesMatchesNegMass(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(10, 0.12), Response: dilution.Ideal{}})
	// Make the posterior non-trivial first.
	if err := m.Update(bitvec.FromIndices(0, 1, 2, 3, 4), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	cands := []bitvec.Mask{
		bitvec.FromIndices(0),
		bitvec.FromIndices(0, 1),
		bitvec.FromIndices(2, 5, 7),
		bitvec.FromIndices(9),
		bitvec.Full(10),
	}
	batch := m.NegMasses(cands)
	if len(batch) != len(cands) {
		t.Fatalf("NegMasses returned %d values", len(batch))
	}
	for i, c := range cands {
		if single := m.NegMasses([]bitvec.Mask{c})[0]; math.Abs(batch[i]-single) > 1e-12 {
			t.Errorf("candidate %v: batch %v vs single %v", c, batch[i], single)
		}
	}
	if got := m.NegMasses(nil); got != nil {
		t.Errorf("NegMasses(nil) = %v", got)
	}
}

func TestEntropyPrior(t *testing.T) {
	pool := newTestPool(t)
	// Uniform risks of 1/2 make the lattice uniform: entropy = N bits.
	m := mustNew(t, pool, Config{Risks: uniformRisks(8, 0.5), Response: dilution.Ideal{}})
	if got := m.Entropy(); math.Abs(got-8) > 1e-9 {
		t.Fatalf("uniform-lattice entropy = %v bits, want 8", got)
	}
	// Independent prior: entropy is the sum of Bernoulli entropies.
	risks := []float64{0.1, 0.25, 0.4}
	m2 := mustNew(t, pool, Config{Risks: risks, Response: dilution.Ideal{}})
	want := 0.0
	for _, p := range risks {
		want += prob.BernoulliEntropy(p) / math.Ln2
	}
	if got := m2.Entropy(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("entropy = %v bits, want %v", got, want)
	}
}

func TestEntropyDecreasesWithInformativeTest(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(8, 0.3), Response: dilution.Ideal{}})
	before := m.Entropy()
	if err := m.Update(bitvec.FromIndices(0, 1, 2, 3), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	after := m.Entropy()
	if after >= before {
		t.Fatalf("entropy did not decrease: %v -> %v", before, after)
	}
}

// TestExpectedInfectedEqualsMarginalSum: the marginals must sum to E[|S|],
// which the per-state oracle reads off the lattice by popcount.
func TestExpectedInfectedEqualsMarginalSum(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(7, 0.2), Response: dilution.Binary{Sens: 0.9, Spec: 0.95}})
	if err := m.Update(bitvec.FromIndices(0, 1, 2), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	marg := m.Marginals()
	if got, want := expectedInfectedScan(m), prob.Sum(marg); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E[|S|] = %v, Σ marginals = %v", got, want)
	}
}

func TestConditionNegative(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.1, 0.2, 0.3, 0.4}
	m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Ideal{}})
	// Conditioning the *prior* on subject 1 negative must give the product
	// prior over the remaining subjects (independence).
	c := m.ConditionInPlace(1, false)
	if c == nil {
		t.Fatal("ConditionInPlace returned nil")
	}
	if c.N() != 3 || c.States() != 8 {
		t.Fatalf("reduced model N=%d states=%d", c.N(), c.States())
	}
	marg := c.Marginals()
	want := []float64{0.1, 0.3, 0.4}
	for i := range want {
		if math.Abs(marg[i]-want[i]) > 1e-12 {
			t.Errorf("reduced marginal[%d] = %v, want %v", i, marg[i], want[i])
		}
	}
	if math.Abs(c.Mass()-1) > 1e-12 {
		t.Errorf("reduced mass = %v", c.Mass())
	}
}

func TestConditionPositiveAfterEvidence(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(5, 0.2), Response: dilution.Binary{Sens: 0.9, Spec: 0.95}})
	if err := m.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	full := m.Marginals()
	// The direct conditional, P(1 | 0 infected, data), computed on the full
	// lattice by restricting to states with bit 0 set.
	var joint, norm float64
	for s := bitvec.Mask(0); s < 32; s++ {
		if !s.Has(0) {
			continue
		}
		w := m.StateMass(s)
		norm += w
		if s.Has(1) {
			joint += w
		}
	}
	c := m.ConditionInPlace(0, true)
	if c == nil {
		t.Fatal("ConditionInPlace returned nil")
	}
	want := joint / norm
	if got := c.Marginals()[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("conditional marginal = %v, want %v (full-model marginal was %v)", got, want, full[1])
	}
}

func TestConditionEdgeCases(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(2, 0.2), Response: dilution.Ideal{}})
	if got := m.ConditionInPlace(-1, true); got != nil {
		t.Error("negative subject accepted")
	}
	if got := m.ConditionInPlace(2, true); got != nil {
		t.Error("out-of-range subject accepted")
	}
	one := m.ConditionInPlace(0, false)
	if one == nil || one.N() != 1 {
		t.Fatal("conditioning to single subject failed")
	}
	if got := one.ConditionInPlace(0, false); got != nil {
		t.Error("conditioning the last subject should return nil")
	}
	// Zero-mass event: after an ideal negative on {0}, conditioning on
	// subject 0 positive is impossible.
	m2 := mustNew(t, pool, Config{Risks: uniformRisks(3, 0.2), Response: dilution.Ideal{}})
	if err := m2.Update(bitvec.FromIndices(0), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	if got := m2.ConditionInPlace(0, true); got != nil {
		t.Error("zero-mass conditioning returned a model")
	}
}

func TestMarginalsAlwaysInUnitInterval(t *testing.T) {
	pool := newTestPool(t)
	f := func(seed uint8) bool {
		n := 4 + int(seed%4)
		m := mustNew(t, pool, Config{Risks: uniformRisks(n, 0.05+float64(seed%10)/20), Response: dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.97, D: 0.4}})
		pm := bitvec.Mask(uint64(seed)%(uint64(1)<<uint(n)) | 1)
		y := dilution.Negative
		if seed%2 == 0 {
			y = dilution.Positive
		}
		if err := m.Update(pm, y); err != nil {
			return true // rejected update is fine
		}
		for _, g := range m.Marginals() {
			if g < -1e-12 || g > 1+1e-12 {
				return false
			}
		}
		return math.Abs(m.Mass()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
