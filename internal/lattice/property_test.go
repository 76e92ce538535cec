package lattice

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/prob"
	"repro/internal/rng"
)

// TestInvariantsUnderRandomCampaigns drives random update sequences
// through random models and checks every structural invariant the rest of
// the system relies on.
func TestInvariantsUnderRandomCampaigns(t *testing.T) {
	pool := newTestPool(t)
	responses := []dilution.Response{
		dilution.Ideal{},
		dilution.Binary{Sens: 0.9, Spec: 0.97},
		dilution.Hyperbolic{MaxSens: 0.97, Spec: 0.99, D: 0.4},
		dilution.Subsample{Q: 0.9, Spec: 0.99},
	}
	r := rng.New(808)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(6)
		risks := make([]float64, n)
		for i := range risks {
			risks[i] = 0.01 + 0.6*r.Float64()
		}
		resp := responses[trial%len(responses)]
		m := mustNew(t, pool, Config{Risks: risks, Response: resp})
		var truth bitvec.Mask
		for i := 0; i < n; i++ {
			if r.Bernoulli(risks[i]) {
				truth = truth.With(i)
			}
		}
		for round := 0; round < 8; round++ {
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if pm == 0 {
				pm = bitvec.FromIndices(r.Intn(n))
			}
			y := resp.Sample(r, truth.IntersectCount(pm), pm.Count())
			if err := m.Update(pm, y); err != nil {
				// A rejected (zero-likelihood) outcome must leave the
				// failure visible; stop this trial.
				break
			}

			// Invariant: total mass is 1 after every accepted update.
			if mass := m.Mass(); math.Abs(mass-1) > 1e-9 {
				t.Fatalf("trial %d round %d: mass %v", trial, round, mass)
			}
			marg := m.Marginals()
			for i, g := range marg {
				if g < -1e-12 || g > 1+1e-12 {
					t.Fatalf("trial %d: marginal[%d] = %v", trial, i, g)
				}
			}
			// Invariant: E[|S|] equals the marginal sum (linearity).
			if d := math.Abs(expectedInfectedScan(m) - prob.Sum(marg)); d > 1e-9 {
				t.Fatalf("trial %d: E[|S|] off marginal sum by %v", trial, d)
			}
			// Invariant: NegMass(A) <= 1 - marg_i for every member i.
			probe := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if probe != 0 {
				nm := m.NegMass(probe)
				for _, i := range probe.Indices() {
					if nm > 1-marg[i]+1e-9 {
						t.Fatalf("trial %d: NegMass(%v)=%v exceeds 1-marg[%d]=%v",
							trial, probe, nm, i, 1-marg[i])
					}
				}
				// Invariant: the intersect-count distribution sums to 1 and
				// its zero slot is exactly NegMass.
				dist := intersectDist(m, probe)
				if math.Abs(prob.Sum(dist)-1) > 1e-9 {
					t.Fatalf("trial %d: intersect distribution sums to %v", trial, prob.Sum(dist))
				}
				if math.Abs(dist[0]-nm) > 1e-9 {
					t.Fatalf("trial %d: dist[0]=%v vs NegMass=%v", trial, dist[0], nm)
				}
				// Invariant: the two branch weights of a probe sum to 1.
				pos := make([]float64, probe.Count()+1)
				for k := range pos {
					pos[k] = dilution.PosProb(resp, k, probe.Count())
				}
				rows := m.BranchMarginals([]uint64{uint64(probe)}, [][]float64{pos})
				if pn, pp := rows[n], rows[2*n+1]; math.Abs(pp+pn-1) > 1e-9 {
					t.Fatalf("trial %d: predictive sums to %v", trial, pp+pn)
				}
			}
			// Invariant: entropy is within [0, N] bits.
			if h := m.Entropy(); h < -1e-9 || h > float64(n)+1e-9 {
				t.Fatalf("trial %d: entropy %v outside [0,%d]", trial, h, n)
			}
		}
	}
}

// TestPrefixNegMassesMatchesDirectScan cross-checks the one-pass
// histogram against per-candidate scans on random posteriors and orders.
func TestPrefixNegMassesMatchesDirectScan(t *testing.T) {
	pool := newTestPool(t)
	r := rng.New(909)
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(5)
		m := mustNew(t, pool, Config{Risks: uniformRisks(n, 0.05+0.3*r.Float64()), Response: dilution.Binary{Sens: 0.92, Spec: 0.98}})
		if err := m.Update(bitvec.Full(n), dilution.Positive); err != nil {
			t.Fatal(err)
		}
		order := r.Perm(n)[:1+r.Intn(n)]
		fast := m.PrefixNegMasses(order)
		var prefix bitvec.Mask
		cands := make([]bitvec.Mask, 0, len(order))
		for _, s := range order {
			prefix = prefix.With(s)
			cands = append(cands, prefix)
		}
		slow := m.NegMasses(cands)
		for i := range cands {
			if math.Abs(fast[i]-slow[i]) > 1e-12 {
				t.Fatalf("trial %d: prefix %d: histogram %v vs scan %v", trial, i, fast[i], slow[i])
			}
		}
		// Monotone: adding subjects can only shrink the clean mass.
		for i := 1; i < len(fast); i++ {
			if fast[i] > fast[i-1]+1e-12 {
				t.Fatalf("trial %d: prefix masses not decreasing: %v", trial, fast)
			}
		}
	}
}

func TestPrefixNegMassesPanics(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(4, 0.1), Response: dilution.Ideal{}})
	for name, order := range map[string][]int{
		"duplicate":    {1, 1},
		"out-of-range": {5},
		"negative":     {-1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s order did not panic", name)
				}
			}()
			m.PrefixNegMasses(order)
		}()
	}
	if got := m.PrefixNegMasses(nil); got != nil {
		t.Errorf("empty order returned %v", got)
	}
}

// TestUpdateCommutesProperty: conditionally independent outcomes commute.
func TestUpdateCommutesProperty(t *testing.T) {
	pool := newTestPool(t)
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 4 + int(seed)%4
		risks := uniformRisks(n, 0.1+0.2*r.Float64())
		resp := dilution.Binary{Sens: 0.9, Spec: 0.96}
		a := mustNew(t, pool, Config{Risks: risks, Response: resp})
		b := a.Clone()
		p1 := bitvec.Mask(r.Uint64())&bitvec.Full(n) | 1
		p2 := bitvec.Mask(r.Uint64())&bitvec.Full(n) | 2
		y1, y2 := dilution.Positive, dilution.Negative
		if err := a.Update(p1, y1); err != nil {
			return true
		}
		if err := a.Update(p2, y2); err != nil {
			return true
		}
		if err := b.Update(p2, y2); err != nil {
			return true
		}
		if err := b.Update(p1, y1); err != nil {
			return true
		}
		ga, gb := a.Marginals(), b.Marginals()
		for i := range ga {
			if math.Abs(ga[i]-gb[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
