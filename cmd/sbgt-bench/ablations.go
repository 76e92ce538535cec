package main

import (
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/posterior"
	"repro/internal/workload"
)

// runA1 sweeps partition granularity: too few partitions starve dynamic
// load balancing, too many drown in scheduling.
func runA1(c *ctx) error {
	n := 20
	if c.quick {
		n = 16
	}
	pool := c.newPool(c.workers)
	defer pool.Close()
	risks := workload.UniformRisks(n, 0.05)
	pm := updatePool(n)
	tab := bench.NewTable(fmt.Sprintf("A1: partition granularity, N=%d, %d workers", n, c.workers),
		"parts/worker", "partitions", "update", "vs-default")
	var def float64
	for _, ppw := range []int{1, 2, 4, 8, 16} {
		m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse, Parts: c.workers * ppw})
		if err != nil {
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
		if ppw == 4 { // engine default
			def = float64(t.Mean)
		}
		ratio := "-"
		if def > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(t.Mean)/def)
		}
		tab.AddRow(ppw, c.workers*ppw, t.Mean, ratio)
	}
	return c.emit(tab)
}

// runA3 compares halving candidate sets: prefix-only vs prefix plus
// local search, reporting both cost and split quality on a correlated
// posterior.
func runA3(c *ctx) error {
	n := 16
	if c.quick {
		n = 12
	}
	pool := c.newPool(c.workers)
	defer pool.Close()
	risks := workload.UniformRisks(n, 0.08)
	m, err := posterior.Spec{}.Open(pool, risks, benchResponse)
	if err != nil {
		return err
	}
	// Correlate the posterior with a few pooled outcomes.
	for i, y := range []dilution.Outcome{dilution.Positive, dilution.Negative, dilution.Positive} {
		pm := updatePool(n - i*3)
		if err := m.Update(pm, y); err != nil {
			return err
		}
	}
	tab := bench.NewTable(fmt.Sprintf("A3: halving candidate set, N=%d", n),
		"candidates", "time", "scanned", "|negmass-0.5|")
	for _, arm := range []struct {
		name string
		opts halving.Options
	}{
		{"prefix", halving.Options{MaxPool: 32}},
		{"prefix+local-search", halving.Options{MaxPool: 32, LocalSearch: true}},
	} {
		var sel halving.Selection
		t := bench.Measure(c.reps(), 1, func() {
			sel, err = halving.SelectOn(m, arm.opts)
		})
		if err != nil {
			return err
		}
		tab.AddRow(arm.name, t.Mean, sel.Scanned, math.Abs(sel.NegMass-0.5))
	}
	return c.emit(tab)
}
