package lattice

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
)

// flatResp has likelihood ½ everywhere, keeping the posterior a fixed
// point across thousands of benchmark updates (an informative response
// would concentrate it into denormal-range tails and measure denormal
// arithmetic instead of the kernel).
var flatResp = dilution.Binary{Sens: 0.5, Spec: 0.5}

func benchLattice(b *testing.B, n int, resp dilution.Response) *Model {
	b.Helper()
	pool := engine.NewPool(0)
	b.Cleanup(pool.Close)
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.05
	}
	m, err := New(pool, Config{Risks: risks, Response: resp})
	if err != nil {
		b.Fatal(err)
	}
	// A fresh model answers Marginals and Entropy from its risks and
	// an updated one Marginals from what the update held; one absorbed
	// outcome and a Posterior call make the benchmarks time the sweeps.
	if err := m.Update(bitvec.FromIndices(0), dilution.Negative); err != nil {
		b.Fatal(err)
	}
	m.Posterior()
	return m
}

func BenchmarkUpdateBySize(b *testing.B) {
	for _, n := range []int{12, 16, 20} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m := benchLattice(b, n, flatResp)
			pm := bitvec.Full(min(n, 16))
			ys := []dilution.Outcome{dilution.Negative, dilution.Positive}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Update(pm, ys[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMarginals(b *testing.B) {
	m := benchLattice(b, 18, flatResp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Marginals()
	}
}

// BenchmarkSelectionScan compares the one-pass prefix scan against the
// equivalent batched per-candidate scan — the per-core heart of the T2
// speedup.
func BenchmarkSelectionScan(b *testing.B) {
	m := benchLattice(b, 18, flatResp)
	order := make([]int, 18)
	for i := range order {
		order[i] = i
	}
	cands := make([]bitvec.Mask, 18)
	var prefix bitvec.Mask
	for i := range cands {
		prefix = prefix.With(i)
		cands[i] = prefix
	}
	b.Run("prefix-histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.PrefixNegMasses(order)
		}
	})
	b.Run("per-candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.NegMasses(cands)
		}
	})
}

func BenchmarkCondition(b *testing.B) {
	m := benchLattice(b, 16, flatResp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := m.Condition(3, false); c == nil {
			b.Fatal("condition failed")
		}
	}
}

// BenchmarkConditionInPlace measures the reuse path against the
// allocating Condition above (now Clone + the same collapse): the collapse gathers inside the receiver's
// own backing array, so the 2^N vector (and model) allocation disappears.
// Each collapse shrinks the model, so rebuild when it runs out.
func BenchmarkConditionInPlace(b *testing.B) {
	m := benchLattice(b, 16, flatResp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.N() <= 2 {
			b.StopTimer()
			m = benchLattice(b, 16, flatResp)
			b.StartTimer()
		}
		if c := m.ConditionInPlace(0, false); c == nil {
			b.Fatal("condition failed")
		}
	}
}

// BenchmarkNegMassCrossover sweeps pool size × N for NegMass against the
// full filtered sweep it replaced (the oracle negMassDense). This sweep
// backs shipping the sub-lattice walk alone: it visits 2^(N−g) states but
// strided, the dense sweep visits 2^N contiguously, so a crossover would
// sit where the 2^g state reduction overtakes the bandwidth advantage — on
// the reference hardware the walk wins from g=1.
func BenchmarkNegMassCrossover(b *testing.B) {
	for _, n := range []int{14, 18, 20} {
		m := benchLattice(b, n, flatResp)
		for _, g := range []int{1, 2, 3, 4, 6, 8} {
			// Spread pool: representative stride pattern (neither the
			// contiguous high-bits best case nor the unit-stride worst).
			var pm bitvec.Mask
			for i := 0; i < g; i++ {
				pm = pm.With(i * n / g)
			}
			b.Run(fmt.Sprintf("N=%d/pool=%d/dense", n, g), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					negMassDense(m, pm)
				}
			})
			b.Run(fmt.Sprintf("N=%d/pool=%d/sublattice", n, g), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.NegMass(pm)
				}
			})
		}
	}
}

// BenchmarkNegMassesTiling sweeps candidate-count × N for the tiled and
// untiled candidate scans.
func BenchmarkNegMassesTiling(b *testing.B) {
	for _, n := range []int{14, 18, 20} {
		m := benchLattice(b, n, flatResp)
		for _, k := range []int{2, 8, 32} {
			cands := make([]bitvec.Mask, k)
			var prefix bitvec.Mask
			for i := range cands {
				prefix = prefix.With(i % n)
				cands[i] = prefix | bitvec.FromIndices((i*7)%n)
			}
			b.Run(fmt.Sprintf("N=%d/cands=%d/untiled", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					negMassesUntiled(m, cands)
				}
			})
			b.Run(fmt.Sprintf("N=%d/cands=%d/tiled", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.NegMasses(cands)
				}
			})
		}
	}
}

// BenchmarkFusionFused and BenchmarkFusionTwoPass are the A2 ablation: the
// shipped Update (multiply and sum in one pass, the normaliser carried)
// against the unfused oracle (multiply pass, then sum and scale).
func BenchmarkFusionFused(b *testing.B) {
	m := benchLattice(b, 16, flatResp)
	pm := bitvec.Full(16)
	ys := []dilution.Outcome{dilution.Negative, dilution.Positive}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(pm, ys[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusionTwoPass(b *testing.B) {
	m := benchLattice(b, 16, flatResp)
	pm := bitvec.Full(16)
	ys := []dilution.Outcome{dilution.Negative, dilution.Positive}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updateTwoPass(m, pm, ys[i%2])
	}
}

// BenchmarkStageKernels times every full-lattice pass a session stage
// makes, plus the prior build and conditioning on the lowest, middle and
// top bit — the bare gather (collapse_*) and ConditionInPlace whole,
// preflight included (condition_*) — as ns/state at the benchmark's three
// cohort sizes. update_marginals is the pair the session issues (the
// Marginals call reads what the update held; marginals alone is the sweep),
// update_eager the oracle's multiply pass plus Scale pass, sum the
// per-state compensated chain (Vector.Sum) the block folds took out of the
// update. prefix_scan also runs at N=18, whose 2^15-state partitions are
// the first the row histogram takes: N=16 times the per-state loop below
// the rule, N=18 and 22 the rows above it. scripts/ci.sh runs it at
// -benchtime 1x so it cannot rot.
func BenchmarkStageKernels(b *testing.B) {
	for _, n := range []int{12, 16, 18, 22} {
		m := benchLattice(b, n, flatResp)
		order := make([]int, n)
		for i := range order {
			order[i] = (i*7 + 3) % n // a fixed permutation, not the identity
		}
		pm := bitvec.Full(n / 2)
		scratch := make([]float64, m.States()) // CollapseBit overwrites its input
		var victim *Model                      // ConditionInPlace consumes its receiver
		condition := func(subject int) func() {
			return func() {
				if victim.ConditionInPlace(subject, false) == nil {
					b.Fatal("condition rejected")
				}
			}
		}
		update := func() {
			if err := m.Update(pm, dilution.Positive); err != nil {
				b.Fatal(err)
			}
		}
		kernels := []struct {
			name   string
			run    func()
			setup  func() // untimed, before every run
			before func() // untimed, once before the runs
		}{
			{name: "marginals", run: func() { m.Marginals() }, before: func() { m.Posterior() }}, // sweep: drop what an update arm held
			{name: "marginals_walk", run: func() { marginalsWalk(m) }},                           // the per-state oracle the fold replaced
			{name: "prefix_scan", run: func() { m.PrefixNegMasses(order) }},
			{name: "entropy", run: func() { m.Entropy() }},
			{name: "update", run: update},
			{name: "update_marginals", run: func() { update(); m.Marginals() }},
			{name: "update_eager", run: func() { updateEager(m, pm, dilution.Positive) }},
			{name: "sum", run: func() { m.post.Sum() }},
			{name: "prior", run: func() {
				if _, err := New(m.post.Pool(), Config{Risks: m.risks, Response: flatResp}); err != nil {
					b.Fatal(err)
				}
			}},
			{name: "collapse_low", run: func() { CollapseBit(0, scratch, 1, 0, 1) }},
			{name: "collapse_mid", run: func() { CollapseBit(0, scratch, 1<<uint(n/2), 0, 1) }},
			{name: "collapse_top", run: func() { CollapseBit(0, scratch, 1<<uint(n-1), 0, 1) }},
			{name: "condition_low", run: condition(0), setup: func() { victim = m.Clone() }},
			{name: "condition_mid", run: condition(n / 2), setup: func() { victim = m.Clone() }},
			{name: "condition_top", run: condition(n - 1), setup: func() { victim = m.Clone() }},
		}
		for _, k := range kernels {
			if n == 18 && k.name != "prefix_scan" {
				continue
			}
			b.Run(fmt.Sprintf("%s/N=%d", k.name, n), func(b *testing.B) {
				if k.before != nil {
					k.before()
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if k.setup != nil {
						b.StopTimer()
						k.setup()
						b.StartTimer()
					}
					k.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.States()), "ns/state")
			})
		}
	}
}
