package dilution

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// allModels returns one configured instance of every Response family.
func allModels() []Response {
	return []Response{
		Ideal{},
		Binary{Sens: 0.95, Spec: 0.99},
		Hyperbolic{MaxSens: 0.99, Spec: 0.99, D: 0.2},
		Logistic{MaxSens: 0.99, Spec: 0.99, Alpha: 4, Beta: 1.5},
		Subsample{Q: 0.95, Spec: 0.99},
		DefaultCt(),
	}
}

func TestBinaryLikelihoodsSumToOne(t *testing.T) {
	// For every binary-outcome model, P(pos) + P(neg) must equal 1 for all
	// pool compositions.
	for _, m := range allModels() {
		if _, isCt := m.(CtValue); isCt {
			continue // continuous outcome: densities, not masses
		}
		for n := 1; n <= 64; n *= 2 {
			for k := 0; k <= n; k++ {
				pos := m.Likelihood(Positive, k, n)
				neg := m.Likelihood(Negative, k, n)
				if pos < 0 || pos > 1 || neg < 0 || neg > 1 {
					t.Fatalf("%s: likelihood outside [0,1] at k=%d n=%d: %v/%v", m.Name(), k, n, pos, neg)
				}
				if math.Abs(pos+neg-1) > 1e-12 {
					t.Fatalf("%s: P(pos)+P(neg) = %v at k=%d n=%d", m.Name(), pos+neg, k, n)
				}
			}
		}
	}
}

func TestIdeal(t *testing.T) {
	var m Ideal
	if got := m.Likelihood(Positive, 0, 8); got != 0 {
		t.Errorf("P(pos|clean) = %v", got)
	}
	if got := m.Likelihood(Negative, 0, 8); got != 1 {
		t.Errorf("P(neg|clean) = %v", got)
	}
	if got := m.Likelihood(Positive, 3, 8); got != 1 {
		t.Errorf("P(pos|k=3) = %v", got)
	}
	r := rng.New(1)
	if y := m.Sample(r, 0, 4); y.Positive {
		t.Error("ideal sampled positive on clean pool")
	}
	if y := m.Sample(r, 2, 4); !y.Positive {
		t.Error("ideal sampled negative on infected pool")
	}
}

func TestBinaryNoDilutionDependence(t *testing.T) {
	m := Binary{Sens: 0.9, Spec: 0.97}
	// Sensitivity must not depend on k or n once k >= 1.
	base := m.Likelihood(Positive, 1, 32)
	for _, kn := range [][2]int{{1, 1}, {2, 8}, {32, 32}, {1, 64}} {
		if got := m.Likelihood(Positive, kn[0], kn[1]); got != base {
			t.Errorf("Binary sens varies with composition %v: %v != %v", kn, got, base)
		}
	}
	if got := m.Likelihood(Positive, 0, 8); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("false-positive rate = %v, want 0.03", got)
	}
}

func TestHyperbolicMonotonicity(t *testing.T) {
	m := Hyperbolic{MaxSens: 0.99, Spec: 0.99, D: 0.3}
	n := 32
	prev := -1.0
	for k := 1; k <= n; k++ {
		p := m.PosProb(k, n)
		if p <= prev {
			t.Fatalf("sensitivity not increasing in k: P(k=%d)=%v <= P(k=%d)=%v", k, p, k-1, prev)
		}
		prev = p
	}
	// Undiluted pool hits MaxSens exactly.
	if got := m.PosProb(n, n); math.Abs(got-0.99) > 1e-12 {
		t.Errorf("P(pos|k=n) = %v, want MaxSens", got)
	}
	// More dilution (bigger pool, same k) lowers sensitivity.
	if m.PosProb(1, 8) <= m.PosProb(1, 32) {
		t.Error("sensitivity did not decay with pool size")
	}
}

func TestHyperbolicDZeroRecoversBinary(t *testing.T) {
	h := Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0}
	b := Binary{Sens: 0.95, Spec: 0.99}
	for n := 1; n <= 32; n *= 2 {
		for k := 0; k <= n; k++ {
			if got, want := h.Likelihood(Positive, k, n), b.Likelihood(Positive, k, n); math.Abs(got-want) > 1e-12 {
				t.Fatalf("D=0 hyperbolic != binary at k=%d n=%d: %v vs %v", k, n, got, want)
			}
		}
	}
}

func TestLogisticMonotonicity(t *testing.T) {
	m := Logistic{MaxSens: 0.99, Spec: 0.99, Alpha: 4, Beta: 1.5}
	n := 32
	prev := -1.0
	for k := 1; k <= n; k++ {
		p := m.PosProb(k, n)
		if p < prev {
			t.Fatalf("logistic sensitivity decreasing in k at k=%d", k)
		}
		prev = p
	}
	// Single positive in a large pool is much harder to detect.
	if m.PosProb(1, 64) >= m.PosProb(64, 64) {
		t.Error("logistic: dilution did not reduce sensitivity")
	}
}

func TestSubsampleComposition(t *testing.T) {
	m := Subsample{Q: 0.9, Spec: 1} // disable false positives for this check
	// With two infected, miss probability should be the square of the
	// single-infected miss probability (independence).
	n := 16
	q := 0.9 / float64(n)
	p1 := m.PosProb(1, n)
	p2 := m.PosProb(2, n)
	if math.Abs((1-p2)-(1-q)*(1-q)) > 1e-12 || math.Abs((1-p1)-(1-q)) > 1e-12 {
		t.Fatalf("independence violated: p1=%v p2=%v", p1, p2)
	}
}

// TestSampleMatchesLikelihood is the Response contract's property test:
// for every model and every composition k <= n <= 32, the Monte-Carlo
// frequency of Sample(...).Positive matches PosProb = 1 − L(negative).
// With T draws the frequency's binomial σ is sqrt(p(1−p)/T); each of the
// 3360 comparisons may stray 5σ plus one draw's 1/T (so an exact 0 or 1
// must come out exact). A 5σ miss has probability ≈ 6e-7 per comparison,
// and the seed is fixed, so the run is deterministic.
func TestSampleMatchesLikelihood(t *testing.T) {
	r := rng.New(99)
	const trials = 2000
	for _, m := range allModels() {
		for n := 1; n <= 32; n++ {
			for k := 0; k <= n; k++ {
				pos := 0
				for i := 0; i < trials; i++ {
					if m.Sample(r, k, n).Positive {
						pos++
					}
				}
				want := PosProb(m, k, n)
				got := float64(pos) / trials
				if tol := 5*math.Sqrt(want*(1-want)/trials) + 1.0/trials; math.Abs(got-want) > tol {
					t.Errorf("%s k=%d n=%d: empirical P(pos)=%v, PosProb %v (tolerance %v)", m.Name(), k, n, got, want, tol)
				}
			}
		}
	}
}

func TestSamplePanicsOnBadComposition(t *testing.T) {
	r := rng.New(1)
	for _, bad := range [][2]int{{-1, 4}, {5, 4}, {0, 0}, {0, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(k=%d,n=%d) did not panic", bad[0], bad[1])
				}
			}()
			Ideal{}.Sample(r, bad[0], bad[1])
		}()
	}
}

func TestCtLikelihoodShape(t *testing.T) {
	c := DefaultCt()
	// A Ct near the dilution-adjusted mean is more likely than one far away.
	mu := c.Base + c.Slope*math.Log2(8.0/1.0) // k=1, n=8
	near := c.Likelihood(Outcome{Positive: true, Ct: mu}, 1, 8)
	far := c.Likelihood(Outcome{Positive: true, Ct: mu + 6}, 1, 8)
	if near <= far {
		t.Fatalf("density at mean %v <= density 6 cycles away %v", near, far)
	}
	// Heavier dilution shifts the mean later: a late Ct favors k=1 over k=8.
	late := c.Base + 3
	if c.Likelihood(Outcome{Positive: true, Ct: late}, 1, 8) <= c.Likelihood(Outcome{Positive: true, Ct: late}, 8, 8) {
		t.Error("late Ct should be better explained by a diluted pool")
	}
	// Negative outcomes are more likely when dilution pushes the mean near
	// the censoring cap.
	if c.Likelihood(Negative, 1, 64) <= c.Likelihood(Negative, 64, 64) {
		t.Error("censoring probability should grow with dilution")
	}
}

func TestCtCleanPool(t *testing.T) {
	c := DefaultCt()
	if got := c.Likelihood(Negative, 0, 8); got != c.Spec {
		t.Errorf("P(neg|clean) = %v, want Spec", got)
	}
	// Contamination density integrates to 1-Spec over the window.
	inWindow := c.Likelihood(Outcome{Positive: true, Ct: c.MaxCycles - 1}, 0, 8)
	if math.Abs(inWindow*c.ContamWindow-(1-c.Spec)) > 1e-12 {
		t.Errorf("contamination density = %v", inWindow)
	}
	if got := c.Likelihood(Outcome{Positive: true, Ct: 20}, 0, 8); got != 0 {
		t.Errorf("early contamination Ct density = %v, want 0", got)
	}
}

func TestCtSampleCensoring(t *testing.T) {
	c := DefaultCt()
	r := rng.New(7)
	for i := 0; i < 5000; i++ {
		y := c.Sample(r, 1, 64)
		if y.Positive && (y.Ct > c.MaxCycles || y.Ct < 1) {
			t.Fatalf("sampled Ct %v outside (1, max]", y.Ct)
		}
	}
}

func TestCtPositiveBeyondCapImpossible(t *testing.T) {
	c := DefaultCt()
	if got := c.Likelihood(Outcome{Positive: true, Ct: c.MaxCycles + 1}, 2, 8); got != 0 {
		t.Errorf("density beyond cap = %v, want 0", got)
	}
}

func TestOutcomeString(t *testing.T) {
	if got := Negative.String(); got != "negative" {
		t.Errorf("Negative.String() = %q", got)
	}
	if got := Positive.String(); got != "positive" {
		t.Errorf("Positive.String() = %q", got)
	}
	if got := (Outcome{Positive: true, Ct: 33.25}).String(); got != "positive(Ct=33.2)" {
		t.Errorf("Ct outcome String() = %q", got)
	}
}

func TestNames(t *testing.T) {
	for _, m := range allModels() {
		if m.Name() == "" {
			t.Errorf("%T has empty name", m)
		}
	}
}
