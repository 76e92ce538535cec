package main

import (
	"fmt"
	"math"

	sbgt "repro"
	sim "repro/internal/workload"
)

// Every workload uses the same cohort settings, so a difference between
// two workloads is a difference in the path through the system, not in
// the epidemiology.
const (
	riskA, riskB = 1, 19 // Beta(1, 19): mean prior risk 5 %
	assayMaxSens = 0.98
	assaySpec    = 0.995
	assayD       = 0.25
)

func assay() sbgt.Response { return sbgt.HyperbolicDilutionTest(assayMaxSens, assaySpec, assayD) }

// cohortInput is one generated cohort: the prior the system is told, the
// truth it must find, and the seed of the simulated lab's noise stream.
type cohortInput struct {
	risks   []float64
	truth   sbgt.SubjectSet
	labSeed uint64
}

// oracle builds a fresh simulated lab for the cohort. Each round builds
// its own, so every round replays the same outcomes.
func (c *cohortInput) oracle() *sbgt.Oracle {
	return sbgt.NewOracle(sbgt.Population{Risks: c.risks, Truth: c.truth}, assay(), sbgt.NewRand(c.labSeed))
}

// infectedPlan returns how many infected subjects each of count cohorts
// of size n holds: cohort i gets the (i+1/2)/count quantile of the
// Binomial(n, 5 %) the Beta(1, 19) prior implies, so the lightest cohort
// comes first and the heaviest last. A free draw of four cohorts holds
// anything from no case to six; the plan makes the one population every
// run measures a typical one by construction, not by the luck of a
// constant.
func infectedPlan(n, count int) []int {
	const p = float64(riskA) / float64(riskA+riskB)
	plan := make([]int, count)
	pk := math.Pow(1-p, float64(n)) // P(K = 0), then P(K = k) by recurrence
	cdf, k := pk, 0
	for i := range plan {
		for q := (float64(i) + 0.5) / float64(count); cdf < q && k < n; {
			pk *= float64(n-k) / float64(k+1) * p / (1 - p)
			k++
			cdf += pk
		}
		plan[i] = k
	}
	return plan
}

// populationSeed roots the one population every run measures. It is a
// constant, not the -seed argument, on purpose: see makeCohorts.
const populationSeed = 20230515

// makeCohorts generates the population's count cohorts of n subjects
// (Beta(1, 19) risks, a truth rejection-sampled to the planned number of
// infected, a lab noise stream; each cohort from its own split of the
// populationSeed stream) and applies the seed to it: the seed relabels
// the subjects inside every cohort and draws the order a round runs the
// cohorts in. cohorts stays in population order, so set-up can probe the
// same cohorts on every seed.
//
// The seed does not draw the population itself, because the acceptance
// check compares runs across seeds and a campaign's length is set by its
// draw. Measured at N=22 over 40 cohorts drawn with the planned numbers
// of infected: 7 to 40 stages, a median turn of 0.1 to 24 ms and 0.24 to
// 0.81 s per cohort, as wide inside one infected count as across them,
// so a round picked from a larger fixed pool, stratified or not, moves
// every metric by more than any bound. The only changes of input that
// leave a campaign's trajectory alone are its symmetries, a permutation
// of the subjects and of the cohorts, and those are what the seed draws:
// the system receives different risk vectors, pool masks, cohort order
// and tenant assignment on every seed, while lattice sizes, outcomes and
// counts stay the same. Input variety lives inside a round, which mixes
// clean cohorts with ones holding several cases.
func makeCohorts(seed uint64, n, count int) (cohorts []cohortInput, order []int, err error) {
	if n < 1 || n > 30 || count < 1 {
		return nil, nil, fmt.Errorf("bench: %d cohorts of %d subjects", count, n)
	}
	plan := infectedPlan(n, count)
	cohorts = make([]cohortInput, count)
	for i, r := range sbgt.NewRand(populationSeed).SplitN(count) {
		risks := sbgt.BetaRisks(n, riskA, riskB, r)
		cohorts[i] = cohortInput{
			risks:   risks,
			truth:   sim.DrawConditioned(risks, plan[i], r).Truth,
			labSeed: r.Uint64(),
		}
	}
	r := sbgt.NewRand(seed)
	for i := range cohorts {
		cohorts[i].relabel(r.Perm(n))
	}
	return cohorts, r.Perm(count), nil
}

// relabel moves subject i to position perm[i].
func (c *cohortInput) relabel(perm []int) {
	risks := make([]float64, len(c.risks))
	var truth sbgt.SubjectSet
	for i, to := range perm {
		risks[to] = c.risks[i]
		if c.truth.Has(i) {
			truth = truth.With(to)
		}
	}
	c.risks, c.truth = risks, truth
}
