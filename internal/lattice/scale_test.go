package lattice_test

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/rng"
)

// TestCarriedScaleMatchesEagerLongCampaign runs the model that carries its
// normaliser against the eager reference (normalize after every
// reweighting, oracle_test.go) through a long seeded campaign: 330 updates
// and 6 conditionings, with a Clone and a Restore (the checkpoint path) on
// the way. Between steps the model is read only through Marginals and
// PrefixNegMasses, so the scale stays pending from update to update; the
// readers that settle run on a throwaway clone. After every step the total
// mass, the marginals, a random prefix scan and every state agree with the
// reference, and the stored mass stays within a predictive factor of 1 —
// the scalar never drifts towards underflow or overflow.
func TestCarriedScaleMatchesEagerLongCampaign(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	responses := []dilution.Response{
		dilution.Binary{Sens: 0.95, Spec: 0.99},
		dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.99, D: 0.35},
	}
	agree := func(step int, what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("step %d: %s = %v, eager reference %v", step, what, got, want)
		}
	}
	for ri, resp := range responses {
		r := rng.New(2100 + uint64(ri))
		risks := make([]float64, 10)
		for i := range risks {
			risks[i] = 0.02 + 0.3*r.Float64()
		}
		cfg := lattice.Config{Risks: risks, Response: resp, Parts: 3}
		got, err := lattice.New(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := lattice.New(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		updates, conditionings := 0, 0
		for step := 0; step < 330; step++ {
			n := got.N()
			switch {
			case step%50 == 25 && n > 4:
				subject, positive := r.Intn(n), r.Bool()
				if (got.ConditionInPlace(subject, positive) == nil) != (lattice.ConditionEager(ref, subject, positive) == nil) {
					t.Fatalf("step %d: the two forms disagree on whether the event has mass", step)
				}
				n = got.N()
				conditionings++
			case step == 110:
				got = got.Clone()
			case step == 210:
				var err error
				cfg := lattice.Config{Risks: got.Risks(), Response: got.Response(), Parts: 2}
				if got, err = lattice.Restore(pool, cfg, got.Posterior().Slice(), got.Tests()); err != nil {
					t.Fatal(err)
				}
			}
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if pm == 0 {
				pm = bitvec.FromIndices(r.Intn(n))
			}
			y := dilution.Negative
			if r.Bool() {
				y = dilution.Positive
			}
			if err := got.Update(pm, y); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			lattice.UpdateEager(ref, pm, y)
			updates++

			if stored := lattice.StoredMass(got); !(stored > 1e-3 && stored <= 1+1e-12) {
				t.Fatalf("step %d: stored mass %v left (0, 1]", step, stored)
			}
			marg, want := got.Marginals(), ref.Marginals()
			for i := range want {
				agree(step, "marginal", marg[i], want[i])
			}
			order := r.Perm(n)[:1+r.Intn(n)]
			neg, wantNeg := got.PrefixNegMasses(order), ref.PrefixNegMasses(order)
			for i := range wantNeg {
				agree(step, "prefix mass", neg[i], wantNeg[i])
			}
			probe := got.Clone() // settles the copy; got keeps its scale pending
			if mass := probe.Mass(); math.Abs(mass-1) > 1e-12 {
				t.Fatalf("step %d: mass %v", step, mass)
			}
			for s := uint64(0); s < probe.States(); s++ {
				agree(step, "state mass", probe.StateMass(bitvec.Mask(s)), ref.StateMass(bitvec.Mask(s)))
			}
		}
		if updates < 300 || conditionings < 6 {
			t.Fatalf("campaign ran %d updates and %d conditionings", updates, conditionings)
		}
	}
}
