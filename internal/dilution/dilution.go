// Package dilution models the response distribution of a pooled diagnostic
// test as a function of how many infected specimens the pool contains.
//
// The Bayesian lattice model needs, for every lattice state S and pool A,
// the likelihood of the observed outcome given that k = |S ∩ A| of the n
// pooled specimens are infected. Pooling dilutes viral material: a single
// positive among 31 negatives amplifies later than a pure positive, so
// sensitivity decays with the dilution ratio k/n. This package provides the
// response families used across the experiments, all behind one interface:
//
//   - Ideal: error-free binary test (the classical Dorfman setting)
//   - Binary: fixed sensitivity/specificity, no dilution dependence
//   - Hyperbolic: sensitivity decays as k/(k + d·(n−k)) (Hwang's model)
//   - Logistic: sensitivity is logistic in log concentration
//   - Subsample: each infected specimen is detected independently
//   - CtValue: continuous RT-PCR cycle-threshold outcome with censoring
//
// Every model is deterministic, safe for concurrent use (methods take no
// mutable receiver state), and samples only through an explicit rng.Source.
package dilution

import (
	"fmt"

	"repro/internal/rng"
)

// Outcome is the observable result of one pooled test.
//
// Binary models use only Positive. The continuous CtValue model also sets
// Ct when Positive (an amplification curve crossed the threshold); a
// negative outcome means the reaction was censored at the cycle cap.
type Outcome struct {
	Positive bool
	Ct       float64 // cycle-threshold reading; meaningful only when Positive
}

// Positive and Negative are the canonical binary outcomes.
var (
	Positive = Outcome{Positive: true}
	Negative = Outcome{Positive: false}
)

// String renders the outcome for logs.
func (o Outcome) String() string {
	if !o.Positive {
		return "negative"
	}
	if o.Ct != 0 { //lint:allow floats the zero value marks the Ct readout absent
		return fmt.Sprintf("positive(Ct=%.1f)", o.Ct)
	}
	return "positive"
}

// Response is the conditional distribution of a pooled test outcome given
// the pool composition.
//
// Likelihood returns the probability (for discrete outcomes) or density
// (for continuous ones) of outcome y when k of the n pooled specimens are
// infected. Implementations must accept k == 0 (a clean pool) and 1 <= n
// <= 64, and must be safe for concurrent use.
type Response interface {
	Likelihood(y Outcome, k, n int) float64
	Sample(r *rng.Source, k, n int) Outcome
	Name() string
}

// PosProb returns the probability that a pool of n specimens with k
// infected reads positive: 1 − L(negative | k, n), never L(positive | k, n).
// A negative reading is a probability mass under every response, while a
// positive one under a continuous readout (CtValue) is a density at one Ct
// value. The pooling calculator and the look-ahead branch tables both read
// the assay through it.
func PosProb(resp Response, k, n int) float64 {
	return 1 - resp.Likelihood(Negative, k, n)
}

// validate panics when a (k, n) pair violates the Response contract.
// Likelihood sits on the innermost lattice loop, so models call this only
// in Sample and rely on the engine's bounded inputs for Likelihood.
func validate(k, n int) {
	if n < 1 || n > 64 || k < 0 || k > n {
		panic(fmt.Sprintf("dilution: invalid pool composition k=%d n=%d", k, n))
	}
}

// Ideal is the error-free test: positive iff the pool contains any
// infected specimen. It is the baseline every experiment compares against.
type Ideal struct{}

// Likelihood implements Response.
func (Ideal) Likelihood(y Outcome, k, n int) float64 {
	if (k > 0) == y.Positive {
		return 1
	}
	return 0
}

// Sample implements Response.
func (Ideal) Sample(_ *rng.Source, k, n int) Outcome {
	validate(k, n)
	if k > 0 {
		return Positive
	}
	return Negative
}

// Name implements Response.
func (Ideal) Name() string { return "ideal" }

// Binary is a sensitivity/specificity test with no dilution dependence:
// any infected material triggers detection with probability Sens.
type Binary struct {
	Sens float64 // P(positive | k >= 1)
	Spec float64 // P(negative | k == 0)
}

// Likelihood implements Response.
func (b Binary) Likelihood(y Outcome, k, n int) float64 {
	var pPos float64
	if k > 0 {
		pPos = b.Sens
	} else {
		pPos = 1 - b.Spec
	}
	if y.Positive {
		return pPos
	}
	return 1 - pPos
}

// Sample implements Response.
func (b Binary) Sample(r *rng.Source, k, n int) Outcome {
	validate(k, n)
	var pPos float64
	if k > 0 {
		pPos = b.Sens
	} else {
		pPos = 1 - b.Spec
	}
	if r.Bernoulli(pPos) {
		return Positive
	}
	return Negative
}

// Name implements Response.
func (b Binary) Name() string { return fmt.Sprintf("binary(se=%.3g,sp=%.3g)", b.Sens, b.Spec) }
