package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/lattice"
)

// BenchmarkSerialCrossover is the measurement behind serialBelow. At each
// lattice size N = 12…22 it times one served stage's partition passes —
// the update that hands back marginals (MulLikelihood), the prefix
// histogram (AddMinRankMasses) and a rescale — over the Vector default
// layout (4 partitions per worker), with the partition loop run on the
// calling goroutine ("caller") or fanned out through Pool.For ("pool"),
// and reports ns per state. "idle" drives one lattice at a time; "busy"
// drives one lattice per GOMAXPROCS goroutine through the shared pool
// (b.RunParallel), as concurrent served cohorts or study replicates do.
// Run it at -cpu 1,2: one worker makes both arms serial, two show what
// the second core returns to a lone kernel and what the hand-off costs
// when the cores are already busy (table in DESIGN §5.2). scripts/ci.sh
// runs it at -benchtime 1x so it cannot rot.
func BenchmarkSerialCrossover(b *testing.B) {
	for n := 12; n <= 22; n++ {
		states := 1 << uint(n)
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		tbl, err := lattice.NewRankTable(order, n)
		if err != nil {
			b.Fatal(err)
		}
		for _, load := range []string{"idle", "busy"} {
			for _, arm := range []string{"caller", "pool"} {
				b.Run(fmt.Sprintf("N=%d/%s/%s", n, load, arm), func(b *testing.B) {
					pool := engine.NewPool(0) // sized by this run's -cpu
					defer pool.Close()
					run := pool.InlineFor
					if arm == "pool" {
						run = func(k int, fn func(lo, hi int)) { pool.For(k, 1, fn) }
					}
					if load == "idle" {
						stage := newCrossoverStage(n, 4*pool.Workers(), tbl, run)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							stage()
						}
					} else {
						b.RunParallel(func(pb *testing.PB) {
							stage := newCrossoverStage(n, 4*pool.Workers(), tbl, run)
							for pb.Next() {
								stage()
							}
						})
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(states), "ns/state")
				})
			}
		}
	}
}

// newCrossoverStage returns one stage's three partition passes over a
// fresh uniform 2^n posterior split into parts partitions, each pass's
// partition loop handed to run.
func newCrossoverStage(n, parts int, tbl *lattice.RankTable, run func(k int, fn func(lo, hi int))) func() {
	states := 1 << uint(n)
	pm := uint64(1)<<uint(n/2) - 1
	lik := make([]float64, n/2+1)
	for i := range lik {
		lik[i] = 1 // the posterior stays a fixed point across iterations
	}
	data := make([]float64, states)
	for i := range data {
		data[i] = 1 / float64(states)
	}
	part := make([][]float64, parts)
	marg, hist := make([][]float64, parts), make([][]float64, parts)
	for p := range part {
		part[p] = data[p*states/parts : (p+1)*states/parts]
		marg[p], hist[p] = make([]float64, n), make([]float64, n+1)
	}
	pass := func(body func(p int, offset uint64, data []float64)) {
		run(parts, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				body(p, uint64(p*states/parts), part[p])
			}
		})
	}
	return func() {
		pass(func(p int, offset uint64, data []float64) {
			clear(marg[p])
			lattice.MulLikelihood(offset, data, pm, lik, marg[p])
		})
		pass(func(p int, offset uint64, data []float64) {
			clear(hist[p])
			tbl.AddMinRankMasses(offset, data, hist[p])
		})
		pass(func(_ int, _ uint64, data []float64) { lattice.Scale(data, 1) })
	}
}
