package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchResponse is the assay used by the kernel benchmarks: noisy enough
// that repeated updates never zero the lattice.
var benchResponse = dilution.Hyperbolic{MaxSens: 0.97, Spec: 0.99, D: 0.3}

// updatePool returns the pool the kernel benchmarks test: the first
// min(n, 16) subjects.
func updatePool(n int) bitvec.Mask {
	k := n
	if k > 16 {
		k = 16
	}
	return bitvec.Full(k)
}

// runT1 measures the lattice-manipulation kernel — posterior update plus
// renormalization plus full marginals — on the engine vs the serial
// baseline. This is the paper's "manipulating lattice models" table.
func runT1(c *ctx) error {
	pool := c.newPool(c.workers)
	defer pool.Close()
	tab := bench.NewTable("T1: lattice ops (update + marginals), SBGT vs baseline",
		"N", "states", "baseline", "sbgt", "speedup")
	for _, n := range c.sizes() {
		risks := workload.UniformRisks(n, 0.05)
		fast, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse})
		if err != nil {
			return err
		}
		slow, err := baseline.New(risks, benchResponse)
		if err != nil {
			return err
		}
		pm := updatePool(n)
		outcomes := []dilution.Outcome{dilution.Negative, dilution.Positive}
		i := 0
		tFast := bench.Measure(c.reps(), 1, func() {
			if err := fast.Update(pm, outcomes[i%2]); err != nil {
				panic(err)
			}
			fast.Marginals()
			i++
		})
		j := 0
		tSlow := bench.Measure(c.reps(), 1, func() {
			if err := slow.Update(pm, outcomes[j%2]); err != nil {
				panic(err)
			}
			slow.Marginals()
			j++
		})
		tab.AddRow(n, uint64(1)<<uint(n), tSlow.Mean, tFast.Mean, bench.Speedup(tSlow.Mean, tFast.Mean))
	}
	return c.emit(tab)
}

// runT2 measures one full halving selection — candidate generation plus
// the clean-mass scan — engine vs baseline ("performing test selections").
func runT2(c *ctx) error {
	pool := c.newPool(c.workers)
	defer pool.Close()
	tab := bench.NewTable("T2: halving test selection, SBGT vs baseline",
		"N", "states", "baseline", "sbgt", "speedup")
	for _, n := range c.sizes() {
		risks := workload.UniformRisks(n, 0.05)
		fast, err := posterior.Spec{}.Open(pool, risks, benchResponse)
		if err != nil {
			return err
		}
		slow, err := baseline.New(risks, benchResponse)
		if err != nil {
			return err
		}
		// A couple of updates so selection works on a non-trivial posterior.
		for _, y := range []dilution.Outcome{dilution.Positive, dilution.Negative} {
			if err := fast.Update(updatePool(n), y); err != nil {
				return err
			}
			if err := slow.Update(updatePool(n), y); err != nil {
				return err
			}
		}
		tFast := bench.Measure(c.reps(), 1, func() {
			_, err = halving.SelectOn(fast, halving.Options{MaxPool: 32})
		})
		if err != nil {
			return err
		}
		tSlow := bench.Measure(c.reps(), 1, func() {
			slow.SelectHalving(32)
		})
		tab.AddRow(n, uint64(1)<<uint(n), tSlow.Mean, tFast.Mean, bench.Speedup(tSlow.Mean, tFast.Mean))
	}
	return c.emit(tab)
}

// runT3 measures a full Monte-Carlo surveillance study, replicates fanned
// out across workers vs strictly serial ("conducting statistical
// analyses").
func runT3(c *ctx) error {
	pool := c.newPool(c.workers)
	defer pool.Close()
	reps := 64
	cohort := 12
	if c.quick {
		reps, cohort = 16, 10
	}
	cfg := stats.StudyConfig{
		RiskGen:    func(*rng.Source) []float64 { return workload.UniformRisks(cohort, 0.05) },
		Response:   benchResponse,
		Replicates: reps,
		Seed:       c.seed,
		Obs:        c.obs,
	}
	tab := bench.NewTable("T3: Monte-Carlo study throughput, parallel vs serial",
		"replicates", "cohort", "serial", "parallel", "speedup", "accuracy")
	var sum stats.Summary
	tSer := bench.Measure(c.reps(), 0, func() {
		res, err := stats.RunSerial(cfg)
		if err != nil {
			panic(err)
		}
		sum = res.Summarize()
	})
	tPar := bench.Measure(c.reps(), 0, func() {
		res, err := stats.Run(pool, cfg)
		if err != nil {
			panic(err)
		}
		sum = res.Summarize()
	})
	tab.AddRow(reps, cohort, tSer.Mean, tPar.Mean, bench.Speedup(tSer.Mean, tPar.Mean),
		fmt.Sprintf("%.4f", sum.Accuracy))
	return c.emit(tab)
}
