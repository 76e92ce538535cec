package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// workerSweep returns 1,2,4,... up to the configured worker count
// (including the exact count when it is not a power of two).
func (c *ctx) workerSweep() []int {
	var ws []int
	for w := 1; w < c.workers; w *= 2 {
		ws = append(ws, w)
	}
	ws = append(ws, c.workers)
	return ws
}

// runF1 is the strong-scaling figure: fixed lattice, growing worker count.
func runF1(c *ctx) error {
	n := 20
	if c.quick {
		n = 16
	}
	risks := workload.UniformRisks(n, 0.05)
	pm := updatePool(n)
	tab := bench.NewTable(fmt.Sprintf("F1: strong scaling, update kernel, N=%d", n),
		"workers", "time", "speedup", "efficiency")
	var base time.Duration
	for _, w := range c.workerSweep() {
		pool := c.newPool(w)
		m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse})
		if err != nil {
			pool.Close()
			return err
		}
		outcomes := []dilution.Outcome{dilution.Negative, dilution.Positive}
		i := 0
		t := bench.Measure(c.reps(), 1, func() {
			if err := m.Update(pm, outcomes[i%2]); err != nil {
				panic(err)
			}
			i++
		})
		pool.Close()
		if base == 0 {
			base = t.Mean
		}
		sp := bench.Speedup(base, t.Mean)
		tab.AddRow(w, t.Mean, sp, bench.Efficiency(sp, w, 1))
	}
	return c.emit(tab)
}

// runF2 is the weak-scaling figure: states per worker held constant, so
// the lattice grows one subject per worker doubling.
func runF2(c *ctx) error {
	basePerWorker := 18 // 2^18 states per worker
	if c.quick {
		basePerWorker = 15
	}
	tab := bench.NewTable(fmt.Sprintf("F2: weak scaling, 2^%d states/worker", basePerWorker),
		"workers", "N", "states", "time", "efficiency")
	var base time.Duration
	w, grow := 1, 0
	for w <= c.workers {
		n := basePerWorker + grow
		risks := workload.UniformRisks(n, 0.05)
		pool := c.newPool(w)
		m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse})
		if err != nil {
			pool.Close()
			return err
		}
		pm := updatePool(n)
		outcomes := []dilution.Outcome{dilution.Negative, dilution.Positive}
		i := 0
		t := bench.Measure(c.reps(), 1, func() {
			if err := m.Update(pm, outcomes[i%2]); err != nil {
				panic(err)
			}
			i++
		})
		pool.Close()
		if base == 0 {
			base = t.Mean
		}
		// Weak-scaling efficiency: T(1)/T(w) at matched per-worker load.
		tab.AddRow(w, n, uint64(1)<<uint(n), t.Mean, bench.Speedup(base, t.Mean))
		w *= 2
		grow++
	}
	return c.emit(tab)
}

// runF3 is the operating-characteristics sweep: accuracy, savings, and
// stage counts as prevalence rises, with and without dilution.
func runF3(c *ctx) error {
	pool := c.newPool(c.workers)
	defer pool.Close()
	cohort, reps := 16, 48
	if c.quick {
		cohort, reps = 10, 12
	}
	prevs := []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
	tab := bench.NewTable(fmt.Sprintf("F3: surveillance vs prevalence, N=%d, %d replicates", cohort, reps),
		"assay", "prevalence", "tests/subj", "savings", "accuracy", "sens", "spec", "stages")
	for _, assay := range []struct {
		name string
		resp dilution.Response
	}{
		{"ideal", dilution.Ideal{}},
		{"dilution", benchResponse},
	} {
		for _, p := range prevs {
			p := p
			cfg := stats.StudyConfig{
				RiskGen:    func(*rng.Source) []float64 { return workload.UniformRisks(cohort, p) },
				Response:   assay.resp,
				Backend:    c.backend,
				Replicates: reps,
				Seed:       c.seed,
				Obs:        c.obs,
				// Thresholds tighter than the lowest prevalence in the
				// sweep: with the default 0.01 negative cutoff above a
				// 0.005 prior, one weak negative would clear everyone.
				PosThreshold: 0.995,
				NegThreshold: 0.002,
			}
			res, err := stats.Run(pool, cfg)
			if err != nil {
				return err
			}
			s := res.Summarize()
			tab.AddRow(assay.name, p, s.TestsPerSubject, res.Savings(), s.Accuracy,
				s.Sensitivity, s.Specificity, s.MeanStages)
		}
	}
	return c.emit(tab)
}

// runF4 is the convergence figure: mean posterior entropy per stage for
// each selection strategy.
func runF4(c *ctx) error {
	cohort, reps, stages := 12, 24, 16
	if c.quick {
		cohort, reps, stages = 10, 8, 12
	}
	mk := func(strat func(r *rng.Source) halving.Strategy) stats.StudyConfig {
		return stats.StudyConfig{
			RiskGen:    func(*rng.Source) []float64 { return workload.UniformRisks(cohort, 0.1) },
			Response:   dilution.Ideal{},
			Strategy:   strat,
			Backend:    c.backend,
			Replicates: reps,
			Seed:       c.seed,
			Obs:        c.obs,
			MaxStages:  stages,
		}
	}
	arms := []struct {
		name  string
		strat func(r *rng.Source) halving.Strategy
	}{
		{"halving", func(*rng.Source) halving.Strategy { return halving.Halving{} }},
		{"random", func(r *rng.Source) halving.Strategy { return halving.Random{Size: cohort / 2, Rng: r.Split()} }},
		{"individual", func(*rng.Source) halving.Strategy { return halving.Individual{} }},
		{"dorfman", func(*rng.Source) halving.Strategy { return &halving.Dorfman{BlockSize: 4} }},
	}
	tab := bench.NewTable(fmt.Sprintf("F4: mean posterior entropy (bits) by stage, N=%d, %d replicates", cohort, reps),
		"strategy", "stage0", "stage2", "stage4", "stage6", "stage8", "stage12")
	for _, arm := range arms {
		trace, err := stats.MeanEntropyTrace(mk(arm.strat), stages)
		if err != nil {
			return err
		}
		tab.AddRow(arm.name, trace[0], trace[2], trace[4], trace[6], trace[8], trace[12])
	}
	return c.emit(tab)
}

// runF5 is the look-ahead trade-off: selecting k pools per stage cuts
// sequential stages at a modest cost in total tests.
func runF5(c *ctx) error {
	pool := c.newPool(c.workers)
	defer pool.Close()
	cohort, reps := 12, 24
	if c.quick {
		cohort, reps = 10, 8
	}
	tab := bench.NewTable(fmt.Sprintf("F5: look-ahead, N=%d, %d replicates", cohort, reps),
		"lookahead", "stages", "tests/subj", "accuracy")
	for _, depth := range []int{1, 2, 4} {
		cfg := stats.StudyConfig{
			RiskGen:    func(*rng.Source) []float64 { return workload.UniformRisks(cohort, 0.08) },
			Response:   benchResponse,
			Lookahead:  depth,
			Replicates: reps,
			Seed:       c.seed,
			Obs:        c.obs,
		}
		res, err := stats.Run(pool, cfg)
		if err != nil {
			return err
		}
		s := res.Summarize()
		tab.AddRow(depth, s.MeanStages, s.TestsPerSubject, s.Accuracy)
	}
	return c.emit(tab)
}

// runF6 measures the distributed runtime: one update+marginals round per
// executor count, executors in-process on loopback TCP — opened through
// the posterior backend spec, the same path sessions and studies use.
func runF6(c *ctx) error {
	n := 18
	if c.quick {
		n = 14
	}
	risks := workload.UniformRisks(n, 0.05)
	pm := updatePool(n)
	tab := bench.NewTable(fmt.Sprintf("F6: distributed lattice kernels over TCP, N=%d", n),
		"executors", "update+marginals", "speedup")
	var base time.Duration
	for _, execs := range []int{1, 2, 4} {
		model, err := posterior.Spec{
			Kind:           posterior.KindCluster,
			LocalExecutors: execs,
			ExecWorkers:    1,
			DialTimeout:    2 * time.Second,
			Obs:            c.obs,
		}.Open(nil, risks, benchResponse)
		if err != nil {
			return err
		}
		outcomes := []dilution.Outcome{dilution.Negative, dilution.Positive}
		i := 0
		t := bench.Measure(c.reps(), 1, func() {
			if err := model.Update(pm, outcomes[i%2]); err != nil {
				panic(err)
			}
			if _, err := model.Marginals(); err != nil {
				panic(err)
			}
			i++
		})
		if err := model.Close(); err != nil {
			return err
		}
		if base == 0 {
			base = t.Mean
		}
		tab.AddRow(execs, t.Mean, bench.Speedup(base, t.Mean))
	}
	return c.emit(tab)
}
