package calculator

import (
	"math"
	"testing"

	"repro/internal/dilution"
)

func TestBinomPMF(t *testing.T) {
	// Sums to one.
	for _, n := range []int{1, 5, 20} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += binomPMF(n, k, p)
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("pmf(n=%d,p=%v) sums to %v", n, p, sum)
			}
		}
	}
	// Known value: C(4,2)·0.5^4 = 0.375.
	if got := binomPMF(4, 2, 0.5); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("binomPMF(4,2,0.5) = %v", got)
	}
	// Edge probabilities.
	if binomPMF(3, 0, 0) != 1 || binomPMF(3, 1, 0) != 0 {
		t.Error("p=0 edge wrong")
	}
	if binomPMF(3, 3, 1) != 1 || binomPMF(3, 2, 1) != 0 {
		t.Error("p=1 edge wrong")
	}
	if binomPMF(3, 4, 0.5) != 0 || binomPMF(3, -1, 0.5) != 0 {
		t.Error("out-of-range k wrong")
	}
}

func TestIndividualIdeal(t *testing.T) {
	d := Individual(dilution.Ideal{})
	if d.TestsPerSubject != 1 || d.Stages != 1 || d.Sens != 1 || d.Spec != 1 || !d.Exact {
		t.Fatalf("ideal individual = %+v", d)
	}
}

func TestDorfmanMatchesClosedFormIdeal(t *testing.T) {
	// With an ideal test, E[tests]/subject = 1/k + 1 − (1−p)^k.
	for _, p := range []float64{0.01, 0.05, 0.2} {
		for _, k := range []int{2, 5, 10} {
			d := Dorfman(p, k, dilution.Ideal{})
			want := 1/float64(k) + 1 - math.Pow(1-p, float64(k))
			if math.Abs(d.TestsPerSubject-want) > 1e-12 {
				t.Fatalf("Dorfman(p=%v,k=%d) = %v, closed form %v", p, k, d.TestsPerSubject, want)
			}
			if math.Abs(d.Sens-1) > 1e-12 || math.Abs(d.Spec-1) > 1e-12 {
				t.Fatalf("ideal Dorfman sens/spec = %v/%v", d.Sens, d.Spec)
			}
		}
	}
}

func TestDorfmanDilutionLowersSensitivity(t *testing.T) {
	resp := dilution.Hyperbolic{MaxSens: 0.98, Spec: 0.99, D: 0.5}
	small := Dorfman(0.05, 3, resp)
	large := Dorfman(0.05, 20, resp)
	if large.Sens >= small.Sens {
		t.Fatalf("dilution did not lower block sensitivity: k=3 %v vs k=20 %v", small.Sens, large.Sens)
	}
	if small.Sens >= Individual(resp).Sens {
		t.Fatalf("pooled sensitivity %v not below individual %v", small.Sens, Individual(resp).Sens)
	}
}

func TestDorfmanPanicsOnBadInput(t *testing.T) {
	for _, f := range []func(){
		func() { Dorfman(0, 4, dilution.Ideal{}) },
		func() { Dorfman(0.5, 0, dilution.Ideal{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestOptimalDorfmanNearSqrtRule(t *testing.T) {
	// The classical optimum for ideal tests is k ≈ 1/√p.
	for _, p := range []float64{0.01, 0.04} {
		k, d := OptimalDorfman(p, 32, dilution.Ideal{})
		want := 1 / math.Sqrt(p)
		if math.Abs(float64(k)-want) > want/2 {
			t.Fatalf("optimal block %d far from sqrt rule %v at p=%v", k, want, p)
		}
		if d.TestsPerSubject >= 1 {
			t.Fatalf("optimal Dorfman saves nothing at p=%v: %v", p, d.TestsPerSubject)
		}
	}
}

func TestHalvingEstimate(t *testing.T) {
	d, err := Halving(0.05, dilution.Ideal{}, HalvingParams{Cohort: 10, Replicates: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Exact {
		t.Error("halving claimed exact")
	}
	if d.TestsPerSubject <= 0 || d.TestsPerSubject >= 1 {
		t.Fatalf("halving tests/subject = %v", d.TestsPerSubject)
	}
	if d.Sens != 1 || d.Spec != 1 {
		t.Fatalf("ideal-assay halving sens/spec = %v/%v", d.Sens, d.Spec)
	}
	if _, err := Halving(1.5, dilution.Ideal{}, HalvingParams{}); err == nil {
		t.Error("bad prevalence accepted")
	}
}

func TestHalvingDeterministic(t *testing.T) {
	hp := HalvingParams{Cohort: 10, Replicates: 8, Seed: 9}
	a, err := Halving(0.08, dilution.Binary{Sens: 0.95, Spec: 0.99}, hp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Halving(0.08, dilution.Binary{Sens: 0.95, Spec: 0.99}, hp)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("halving estimate not deterministic: %+v vs %+v", a, b)
	}
}

func TestOptimalDorfmanWithFloor(t *testing.T) {
	// Ideal assay: floor is vacuous, must match the unconstrained optimum.
	kU, dU := OptimalDorfman(0.02, 32, dilution.Ideal{})
	kF, dF, ok := OptimalDorfmanWithFloor(0.02, 32, dilution.Ideal{}, 0.9)
	if !ok || kF != kU || dF.TestsPerSubject != dU.TestsPerSubject {
		t.Fatalf("floor changed the ideal optimum: %d/%v vs %d/%v", kF, dF, kU, dU)
	}
	// Strong dilution: the constrained optimum must be smaller (or absent)
	// and at least as sensitive as the floor.
	resp := dilution.Hyperbolic{MaxSens: 0.98, Spec: 0.995, D: 0.25}
	kU, _ = OptimalDorfman(0.05, 32, resp)
	kF, dF, ok = OptimalDorfmanWithFloor(0.05, 32, resp, 0.5)
	if ok {
		if dF.Sens < 0.5 {
			t.Fatalf("floor violated: sens %v", dF.Sens)
		}
		if kF > kU {
			t.Fatalf("constrained block %d larger than unconstrained %d", kF, kU)
		}
	}
	// An impossible floor reports absence.
	if _, _, ok := OptimalDorfmanWithFloor(0.05, 32, resp, 0.999); ok {
		t.Fatal("impossible floor satisfied")
	}
}

func TestRecommendRespectsSensitivityFloor(t *testing.T) {
	designs := []Design{
		{Name: "individual", TestsPerSubject: 1, Sens: 0.98, Exact: true},
		{Name: "cheap-but-blind", TestsPerSubject: 0.2, Sens: 0.3, Exact: true},
		{Name: "good-pooling", TestsPerSubject: 0.5, Sens: 0.95},
	}
	if got := Recommend(designs); got.Name != "good-pooling" {
		t.Fatalf("Recommend picked %s", got.Name)
	}
	// When nothing else qualifies, individual testing wins.
	designs[2].Sens = 0.2
	if got := Recommend(designs); got.Name != "individual" {
		t.Fatalf("Recommend picked %s", got.Name)
	}
}

func TestCompare(t *testing.T) {
	designs, err := Compare(0.03, dilution.Ideal{}, HalvingParams{Cohort: 10, Replicates: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != 3 {
		t.Fatalf("got %d designs", len(designs))
	}
	// At 3% prevalence with an ideal assay both pooled designs beat
	// individual testing, and adaptive halving beats Dorfman.
	ind, dorf, halv := designs[0], designs[1], designs[2]
	if dorf.TestsPerSubject >= ind.TestsPerSubject {
		t.Fatalf("Dorfman %v not below individual %v", dorf.TestsPerSubject, ind.TestsPerSubject)
	}
	if halv.TestsPerSubject >= dorf.TestsPerSubject {
		t.Fatalf("halving %v not below Dorfman %v", halv.TestsPerSubject, dorf.TestsPerSubject)
	}
	for _, d := range designs {
		if d.String() == "" {
			t.Error("empty design string")
		}
	}
	if _, err := Compare(0, dilution.Ideal{}, HalvingParams{}); err == nil {
		t.Error("bad prevalence accepted")
	}
}

// TestCtSensitivityIsAProbability pins that a continuous readout's
// positive call is priced by its censored-negative mass, not by the Ct
// density at zero: an undiluted DefaultCt sample crosses threshold by
// cycle 40 almost surely.
func TestCtSensitivityIsAProbability(t *testing.T) {
	ct := dilution.DefaultCt()
	if d := Individual(ct); math.Abs(d.Sens-1) > 1e-9 {
		t.Fatalf("individual sens under ct = %v, want 1", d.Sens)
	}
	if d := Dorfman(0.05, 8, ct); d.Sens < 0.99 {
		t.Fatalf("dorfman-8 sens under ct = %v, want ≥ 0.99", d.Sens)
	}
}

// TestBinaryRowsUnchanged holds every binary response's Individual and
// Dorfman rows to the L(positive | k, n) reading they had before P(positive)
// became 1 − L(negative | k, n): for a binary outcome the two agree.
func TestBinaryRowsUnchanged(t *testing.T) {
	for _, resp := range []dilution.Response{
		dilution.Ideal{},
		dilution.Binary{Sens: 0.95, Spec: 0.99},
		dilution.Hyperbolic{MaxSens: 0.98, Spec: 0.995, D: 0.25},
		dilution.Logistic{MaxSens: 0.99, Spec: 0.99, Alpha: 4, Beta: 1.5},
		dilution.Subsample{Q: 0.95, Spec: 0.99},
	} {
		pos := func(k, n int) float64 { return resp.Likelihood(dilution.Positive, k, n) }
		near := func(what string, got, want float64) {
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s %s = %v, L(positive) reading %v", resp.Name(), what, got, want)
			}
		}
		ind := Individual(resp)
		near("individual sens", ind.Sens, pos(1, 1))
		for _, p := range []float64{0.01, 0.05, 0.2} {
			for _, k := range []int{2, 8, 32} {
				var block, sens, fp float64
				for j := 0; j <= k; j++ {
					block += binomPMF(k, j, p) * pos(j, k)
				}
				for j := 0; j < k; j++ {
					sens += binomPMF(k-1, j, p) * pos(j+1, k)
					fp += binomPMF(k-1, j, p) * pos(j, k)
				}
				d := Dorfman(p, k, resp)
				near("dorfman tests", d.TestsPerSubject, 1/float64(k)+block)
				near("dorfman sens", d.Sens, sens*pos(1, 1))
				near("dorfman spec", d.Spec, 1-fp*pos(0, 1))
			}
		}
	}
}
