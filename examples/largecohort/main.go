// Large cohort: Bayesian group testing for 48 subjects on one machine.
//
// The dense lattice tops out at 30 subjects (2^30 states). This example
// uses the truncated sparse posterior — only states above a relative mass
// threshold are retained, with the discarded mass reported as an explicit
// error bound — to run a full halving-driven campaign on a 48-subject
// cohort at 2% prevalence, where the exact lattice would need 2^48 states.
//
//	go run ./examples/largecohort
package main

import (
	"fmt"
	"log/slog"
	"os"

	sbgt "repro"
	"repro/internal/obs"
)

const (
	cohort     = 48
	prevalence = 0.02
	posThresh  = 0.99
	negThresh  = 0.005
)

func main() {
	logg := obs.NewLogger(os.Stderr, slog.LevelInfo, "example-largecohort")
	fatal := func(err error) {
		logg.Error(err.Error())
		os.Exit(1)
	}
	risks := sbgt.UniformRisks(cohort, prevalence)
	assay := sbgt.BinaryTest(0.97, 0.995)
	r := sbgt.NewRand(2027)
	population := sbgt.DrawPopulation(risks, r)
	oracle := sbgt.NewOracle(population, assay, r)
	fmt.Printf("cohort of %d at %.0f%% prevalence; hidden truth %v (%d infected)\n",
		cohort, prevalence*100, population.Truth, population.Infected())

	eng := sbgt.NewEngine(0)
	defer eng.Close()
	model, err := eng.OpenBackend(sbgt.Backend{Kind: sbgt.BackendSparse, Eps: 1e-9}, risks, assay)
	if err != nil {
		fatal(err)
	}
	// The sparse backend's snapshot carries its truncation accounting: the
	// retained support and the bound on the mass it has discarded.
	truncation := func(m sbgt.Posterior) (support int, bound float64) {
		snap, err := m.Snapshot()
		if err != nil {
			fatal(err)
		}
		return len(snap.States), snap.Pruned
	}
	support, bound := truncation(model)
	fmt.Printf("truncated prior support: %d states (vs 2^48 ≈ 2.8e14 dense), bound %.2g\n", support, bound)

	// The same session loop that drives the dense lattice drives the
	// truncated posterior: halving selects, the oracle answers, subjects
	// whose marginal crosses a threshold are classified and conditioned
	// out of the model.
	sess, err := eng.NewSessionOn(model, sbgt.Config{
		Strategy:     sbgt.HalvingStrategy(16, false),
		PosThreshold: posThresh,
		NegThreshold: negThresh,
		MaxStages:    200,
	})
	if err != nil {
		fatal(err)
	}
	var pool sbgt.SubjectSet
	var outcome sbgt.Outcome
	test := func(p sbgt.SubjectSet) sbgt.Outcome {
		pool, outcome = p, oracle.Test(p)
		return outcome
	}
	for !sess.Done() {
		if err := sess.Step(test); err != nil {
			fatal(err)
		}
		live := sess.Model() // nil once the last subject is classified
		if live == nil {
			break
		}
		support, bound = truncation(live)
		if stage := sess.Stage(); stage <= 6 || stage%10 == 0 {
			entropy, err := live.Entropy()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  stage %3d: pool %-30v -> %-8v  support %6d  entropy %6.2f bits\n",
				stage, pool, outcome, support, entropy)
		}
	}

	res := sess.Result()
	called := res.Positives()
	correct := 0
	for i := 0; i < cohort; i++ {
		if called.Has(i) == population.Truth.Has(i) {
			correct++
		}
	}
	fmt.Printf("finished after %d tests (%.2f per subject)\n", res.Tests, res.TestsPerSubject())
	fmt.Printf("called positives %v; accuracy %d/%d; truncation bound %.3g\n",
		called, correct, cohort, bound)
}
