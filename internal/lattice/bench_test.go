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

// BenchmarkConditionInPlace measures a classification as a session makes
// it: ConditionInPlace, then the Marginals read that follows, which takes
// the vector the collapse's own pass held. The collapse gathers inside the
// receiver's own backing array, so it allocates no 2^N vector and no
// model. Each collapse shrinks the model, so rebuild when it runs out.
// make bench-smoke runs it at -benchtime 1x.
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
		m.Marginals()
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
// top bit — the serial kernel alone (collapse_*), the kernel in
// ShrinkGather's waves as ConditionInPlace runs it (gather_*; the top arms
// of both keep the positive half, as a negative one is a truncation), and
// ConditionInPlace whole, preflight included (condition_*) — as ns/state
// at the benchmark's three cohort sizes. update_marginals is the pair the
// session issues (the Marginals call reads what the update held; marginals
// alone is the sweep), update_eager the oracle's multiply pass plus Scale
// pass, sum the per-state compensated chain (Vector.Sum) the block folds
// took out of the update. prefix_scan also runs at N=18, whose 2^15-state
// partitions are the first the row histogram takes: N=16 times the
// per-state loop below the rule, N=18 and 22 the rows above it.
// scripts/ci.sh runs it at -benchtime 1x so it cannot rot, and the
// gather_* arms again at -cpu 1,2.
func BenchmarkStageKernels(b *testing.B) {
	for _, n := range []int{12, 16, 18, 22} {
		m := benchLattice(b, n, flatResp)
		order := make([]int, n)
		for i := range order {
			order[i] = (i*7 + 3) % n // a fixed permutation, not the identity
		}
		pm := bitvec.Full(n / 2)
		scratch := make([]float64, m.States()) // CollapseBit overwrites its input
		// The gather and condition arms consume victim, one clone made once;
		// refill makes it m's copy again, full length over the same backing,
		// so no arm times the collector or a fresh allocation's cold memory.
		victim := cloneModel(m)
		full, risks := *victim.post, victim.risks
		refill := func() {
			post := victim.post
			*victim, *post = *m, full
			victim.post, victim.risks = post, append(risks[:0], m.risks...)
			post.ForPartitions(func(p int, _ uint64, data []float64) {
				_, src := m.post.Partition(p)
				copy(data, src)
			})
		}
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
			{name: "collapse_low", run: func() { CollapseBit(0, scratch, 1, 0) }},
			{name: "collapse_mid", run: func() { CollapseBit(0, scratch, 1<<uint(n/2), 0) }},
			{name: "collapse_top", run: func() { CollapseBit(0, scratch, 1<<uint(n-1), 1<<uint(n-1)) }},
			{name: "gather_low", run: func() { collapseVector(victim.post, 1, 0) }, setup: refill},
			{name: "gather_mid", run: func() { collapseVector(victim.post, 1<<uint(n/2), 0) }, setup: refill},
			{name: "gather_top", run: func() { collapseVector(victim.post, 1<<uint(n-1), 1<<uint(n-1)) }, setup: refill},
			{name: "condition_low", run: condition(0), setup: refill},
			{name: "condition_mid", run: condition(n / 2), setup: refill},
			{name: "condition_top", run: condition(n - 1), setup: refill},
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

// BenchmarkCollapseCopyWidth times both forms of the collapse gather, the
// per-state loop and the stretch copy, on every bit from 1 to 256 of an
// N=20 run, in ns/state: collapseCopyBit is the narrowest bit at which the
// copy wins. The positive half is kept, so no survivor is in place.
func BenchmarkCollapseCopyWidth(b *testing.B) {
	const n = 20
	data := make([]float64, 1<<n)
	for k := 0; k <= 8; k++ {
		bit := uint64(1) << uint(k)
		for _, form := range []struct {
			name string
			run  func(offset uint64, data []float64, bit, base, lo, hi uint64)
		}{{"states", collapseStates}, {"stretches", collapseStretches}} {
			b.Run(fmt.Sprintf("bit=%d/%s", bit, form.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					form.run(0, data, bit, bit, 0, 1<<(n-1))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(1<<(n-1)), "ns/state")
			})
		}
	}
}
