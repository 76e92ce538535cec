// Package calculator computes pooling-design operating characteristics —
// the engine behind cmd/sbgt-calc, this reproduction's analogue of the
// "web-based calculator … to assist in weighing these factors and to
// guide decisions on when and how to pool" introduced by the companion
// Biostatistics paper.
//
// For classical designs (individual testing, Dorfman two-stage blocks)
// the expectations are computed exactly by summing over the binomial
// distribution of infected counts per block, through the same
// dilution.Response models the inference engine uses. For the adaptive
// Bayesian-halving programme, whose cost has no closed form, the
// calculator runs a deterministic Monte-Carlo study.
package calculator

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Design summarizes one testing programme's expected operating
// characteristics at a given prevalence.
type Design struct {
	Name            string
	TestsPerSubject float64
	Stages          float64 // sequential lab round-trips
	Sens            float64 // P(classified positive | infected)
	Spec            float64 // P(classified negative | clean)
	Exact           bool    // true when computed analytically
}

// String renders the design as one row body.
func (d Design) String() string {
	kind := "monte-carlo"
	if d.Exact {
		kind = "exact"
	}
	return fmt.Sprintf("%-18s tests/subj=%.4f stages=%.2f sens=%.4f spec=%.4f (%s)",
		d.Name, d.TestsPerSubject, d.Stages, d.Sens, d.Spec, kind)
}

// binomPMF returns C(n,k)·p^k·(1−p)^(n−k), computed stably in log space
// for large n.
func binomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p == 0 { //lint:allow floats exact degenerate endpoint of the PMF
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 { //lint:allow floats exact degenerate endpoint of the PMF
		if k == n {
			return 1
		}
		return 0
	}
	logC := math.Log(float64(bitvec.Binomial(n, k)))
	return math.Exp(logC + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// Individual returns the exact characteristics of one-test-per-subject
// testing under the response model.
func Individual(resp dilution.Response) Design {
	return Design{
		Name:            "individual",
		TestsPerSubject: 1,
		Stages:          1,
		Sens:            dilution.PosProb(resp, 1, 1),
		Spec:            resp.Likelihood(dilution.Negative, 0, 1),
		Exact:           true,
	}
}

// Dorfman returns the exact characteristics of the classical two-stage
// design with blocks of size k at prevalence p: stage one tests each
// block pooled; members of positive blocks are retested individually.
//
// Derivation: with J ~ Binomial(k, p) infected in a block and
// p₊(j, k) = 1 − L(−| j, k) (dilution.PosProb),
//
//	E[tests]/k   = 1/k + P(block positive)
//	P(block positive) = Σ_j P(J=j)·p₊(j, k)
//	sens = Σ_j P(J−1=j | subject infected)·p₊(j+1, k)·p₊(1, 1)
//	spec = 1 − Σ_j P(J=j | subject clean)·p₊(j, k)·p₊(0, 1)
//
// where the conditional block compositions use k−1 draws for the other
// members. It panics when k < 1 or p is outside (0,1): calculator inputs
// are operator-supplied and validated by the caller.
func Dorfman(p float64, k int, resp dilution.Response) Design {
	if k < 1 || !(p > 0 && p < 1) {
		panic(fmt.Sprintf("calculator: invalid Dorfman inputs p=%v k=%d", p, k))
	}
	// P(block positive) over the full block.
	var pPos float64
	for j := 0; j <= k; j++ {
		pPos += binomPMF(k, j, p) * dilution.PosProb(resp, j, k)
	}
	// Sensitivity: condition on one infected member; the other k−1 are iid.
	var sens float64
	for j := 0; j <= k-1; j++ {
		sens += binomPMF(k-1, j, p) * dilution.PosProb(resp, j+1, k)
	}
	sens *= dilution.PosProb(resp, 1, 1)
	// False-positive path: clean subject, block fires (others may be
	// infected), individual test fires spuriously.
	var fp float64
	for j := 0; j <= k-1; j++ {
		fp += binomPMF(k-1, j, p) * dilution.PosProb(resp, j, k)
	}
	fp *= dilution.PosProb(resp, 0, 1)
	stages := 1 + pPos // second stage happens only for positive blocks
	return Design{
		Name:            fmt.Sprintf("dorfman-%d", k),
		TestsPerSubject: 1/float64(k) + pPos,
		Stages:          stages,
		Sens:            sens,
		Spec:            1 - fp,
		Exact:           true,
	}
}

// OptimalDorfman scans block sizes 2..maxK and returns the block size
// minimizing tests per subject, with its design. Note that under dilution
// the cheapest block can have terrible sensitivity (a huge pool rarely
// fires, so it rarely triggers second-stage tests); use
// OptimalDorfmanWithFloor to optimize under a detection constraint.
func OptimalDorfman(p float64, maxK int, resp dilution.Response) (int, Design) {
	bestK, best := 2, Dorfman(p, 2, resp)
	for k := 3; k <= maxK; k++ {
		if d := Dorfman(p, k, resp); d.TestsPerSubject < best.TestsPerSubject {
			bestK, best = k, d
		}
	}
	return bestK, best
}

// OptimalDorfmanWithFloor returns the cheapest Dorfman design whose
// sensitivity is at least minSens, or (0, zero Design, false) when no
// block size 2..maxK meets the floor.
func OptimalDorfmanWithFloor(p float64, maxK int, resp dilution.Response, minSens float64) (int, Design, bool) {
	bestK := 0
	var best Design
	found := false
	for k := 2; k <= maxK; k++ {
		d := Dorfman(p, k, resp)
		if d.Sens < minSens {
			continue
		}
		if !found || d.TestsPerSubject < best.TestsPerSubject {
			bestK, best, found = k, d, true
		}
	}
	return bestK, best, found
}

// HalvingParams configures the Monte-Carlo estimate for the adaptive
// Bayesian programme.
type HalvingParams struct {
	Cohort     int // lattice size per session (<= 30)
	MaxPool    int
	Lookahead  int
	Replicates int
	Seed       uint64
}

// Halving estimates the Bayesian-halving programme's characteristics at
// prevalence p by a deterministic Monte-Carlo study.
func Halving(p float64, resp dilution.Response, hp HalvingParams) (Design, error) {
	if !(p > 0 && p < 1) {
		return Design{}, fmt.Errorf("calculator: prevalence %v outside (0,1)", p)
	}
	if hp.Cohort <= 0 {
		hp.Cohort = 16
	}
	if hp.Replicates <= 0 {
		hp.Replicates = 32
	}
	res, err := stats.RunSerial(stats.StudyConfig{
		RiskGen:  func(*rng.Source) []float64 { return workload.UniformRisks(hp.Cohort, p) },
		Response: resp,
		Strategy: func(*rng.Source) halving.Strategy {
			return halving.Halving{Opts: halving.Options{MaxPool: hp.MaxPool}}
		},
		Lookahead:  hp.Lookahead,
		Replicates: hp.Replicates,
		Seed:       hp.Seed,
	})
	if err != nil {
		return Design{}, err
	}
	s := res.Summarize()
	return Design{
		Name:            "bayesian-halving",
		TestsPerSubject: s.TestsPerSubject,
		Stages:          s.MeanStages,
		Sens:            s.Sensitivity,
		Spec:            s.Specificity,
	}, nil
}

// Compare produces the guidance table: individual testing, the optimal
// Dorfman design, and the Bayesian-halving programme at prevalence p.
// The Dorfman optimum is taken under a sensitivity floor of 90% of the
// individual test's sensitivity — the cheapest unconstrained block can be
// a detection disaster under dilution (a huge pool rarely fires at all).
// When no block meets the floor, the unconstrained optimum is returned so
// the table still shows what "cheap" costs in missed cases.
func Compare(p float64, resp dilution.Response, hp HalvingParams) ([]Design, error) {
	if !(p > 0 && p < 1) {
		return nil, fmt.Errorf("calculator: prevalence %v outside (0,1)", p)
	}
	maxK := hp.MaxPool
	if maxK < 2 {
		maxK = 32
	}
	ind := Individual(resp)
	_, dorf, ok := OptimalDorfmanWithFloor(p, maxK, resp, 0.9*ind.Sens)
	if !ok {
		_, dorf = OptimalDorfman(p, maxK, resp)
	}
	halv, err := Halving(p, resp, hp)
	if err != nil {
		return nil, err
	}
	return []Design{ind, dorf, halv}, nil
}

// Recommend picks the cheapest design from a Compare table whose
// sensitivity reaches 90% of individual testing's — the rule the CLI
// prints. Individual testing always qualifies, so a result is guaranteed.
func Recommend(designs []Design) Design {
	floor := 0.9 * designs[0].Sens
	best := designs[0]
	for _, d := range designs[1:] {
		if d.Sens >= floor && d.TestsPerSubject < best.TestsPerSubject {
			best = d
		}
	}
	return best
}
