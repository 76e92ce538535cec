package halving_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	. "repro/internal/halving"
	"repro/internal/posterior"
	"repro/internal/rng"
)

func newModel(t *testing.T, risks []float64, resp dilution.Response) posterior.Model {
	t.Helper()
	pool := engine.NewPool(4)
	t.Cleanup(pool.Close)
	m, err := posterior.Spec{}.Open(pool, risks, resp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Select is SelectOn on the dense backend, whose reads never fail.
func Select(m Posterior, opts Options) Selection {
	sel, err := SelectOn(m, opts)
	if err != nil {
		panic(err)
	}
	return sel
}

// lookahead is SelectLookahead on the model's branch reads.
func lookahead(t testing.TB, m posterior.Model, depth int, opts Options) []Selection {
	t.Helper()
	sels, err := SelectLookahead(posterior.Branches(m), depth, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sels
}

func entropy(t *testing.T, m posterior.Model) float64 {
	t.Helper()
	h, err := m.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func uniform(n int, p float64) []float64 {
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = p
	}
	return rs
}

func TestSelectSplitsUniformPrior(t *testing.T) {
	// With risk 0.5 each, P(pool of size 1 clean) = 0.5 exactly: the
	// perfect split is a single subject.
	m := newModel(t, uniform(8, 0.5), dilution.Ideal{})
	sel := Select(m, Options{})
	if sel.Pool.Count() != 1 {
		t.Fatalf("selected %v, want a singleton", sel.Pool)
	}
	if math.Abs(sel.NegMass-0.5) > 1e-12 || sel.Score > 1e-12 {
		t.Fatalf("split quality: negmass=%v score=%v", sel.NegMass, sel.Score)
	}
}

func TestSelectLowPrevalencePoolsWide(t *testing.T) {
	// Low risk: (1-p)^k crosses 1/2 around k = ln2/p; halving should pick
	// a pool of about that size.
	p := 0.05
	m := newModel(t, uniform(20, p), dilution.Ideal{})
	sel := Select(m, Options{})
	want := math.Ln2 / p // ≈ 13.9 — with discrete sizes, 13 or 14
	if got := float64(sel.Pool.Count()); math.Abs(got-want) > 1.0 {
		t.Fatalf("pool size %v, want ≈ %.1f", got, want)
	}
	if sel.Score > 0.05 {
		t.Fatalf("split score %v too far from 1/2", sel.Score)
	}
}

func TestSelectRespectsMaxPool(t *testing.T) {
	m := newModel(t, uniform(20, 0.02), dilution.Ideal{})
	sel := Select(m, Options{MaxPool: 8})
	if sel.Pool.Count() > 8 {
		t.Fatalf("pool %v exceeds MaxPool", sel.Pool)
	}
	// Unconstrained, the same prior wants a much larger pool.
	selFree := Select(m, Options{})
	if selFree.Pool.Count() <= 8 {
		t.Fatalf("unconstrained pool only %d wide", selFree.Pool.Count())
	}
}

func TestSelectPrefersHighRiskSubjects(t *testing.T) {
	// One very high-risk subject: it alone is the best ~1/2 split.
	risks := uniform(10, 0.01)
	risks[7] = 0.5
	m := newModel(t, risks, dilution.Ideal{})
	sel := Select(m, Options{})
	if !sel.Pool.Has(7) {
		t.Fatalf("selection %v ignores the risky subject", sel.Pool)
	}
}

func TestSelectDeterministic(t *testing.T) {
	m := newModel(t, uniform(12, 0.08), dilution.Ideal{})
	first := Select(m, Options{LocalSearch: true})
	for i := 0; i < 5; i++ {
		if got := Select(m, Options{LocalSearch: true}); got.Pool != first.Pool {
			t.Fatalf("run %d selected %v, first run %v", i, got.Pool, first.Pool)
		}
	}
}

func TestLocalSearchNeverWorse(t *testing.T) {
	// Construct a correlated posterior where prefix pools are suboptimal:
	// after a positive on {0,1}, mass concentrates on states containing 0
	// or 1.
	m := newModel(t, uniform(10, 0.1), dilution.Binary{Sens: 0.95, Spec: 0.98})
	if err := m.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	plain := Select(m, Options{})
	ls := Select(m, Options{LocalSearch: true})
	if ls.Score > plain.Score+1e-15 {
		t.Fatalf("local search worsened score: %v -> %v", plain.Score, ls.Score)
	}
	if ls.Scanned <= plain.Scanned {
		t.Fatalf("local search scanned %d <= plain %d", ls.Scanned, plain.Scanned)
	}
}

func TestSelectOnCertainPosterior(t *testing.T) {
	// Drive the posterior to near-certainty, then ask for a selection:
	// it must still return a nonempty pool without panicking.
	m := newModel(t, uniform(4, 0.3), dilution.Ideal{})
	for _, i := range []int{0, 1, 2, 3} {
		if err := m.Update(bitvec.FromIndices(i), dilution.Negative); err != nil {
			t.Fatal(err)
		}
	}
	sel := Select(m, Options{})
	if sel.Pool == 0 {
		t.Fatal("empty selection on certain posterior")
	}
}

func TestSelectionString(t *testing.T) {
	s := Selection{Pool: bitvec.FromIndices(1, 2), NegMass: 0.5, Scanned: 3}
	if got := s.String(); got == "" {
		t.Error("empty Selection.String()")
	}
}

func TestHalvingReducesEntropyFasterThanRandom(t *testing.T) {
	// Run 6 selection/update rounds with simulated truth and compare
	// entropy trajectories. Halving must dominate random pooling.
	run := func(strat Strategy, seed uint64) float64 {
		m := newModel(t, uniform(10, 0.15), dilution.Ideal{})
		r := rng.New(seed)
		truth := bitvec.Mask(0)
		for i := 0; i < 10; i++ {
			if r.Bernoulli(0.15) {
				truth = truth.With(i)
			}
		}
		for round := 0; round < 6; round++ {
			pool, err := strat.Next(m)
			if err != nil {
				t.Fatalf("%s: %v", strat.Name(), err)
			}
			k := truth.IntersectCount(pool)
			y := m.Response().Sample(r, k, pool.Count())
			if err := m.Update(pool, y); err != nil {
				t.Fatalf("%s: %v", strat.Name(), err)
			}
		}
		return entropy(t, m)
	}
	var hSum, rSum float64
	const reps = 10
	for rep := uint64(0); rep < reps; rep++ {
		hSum += run(Halving{}, rep)
		rSum += run(Random{Size: 5, Rng: rng.New(1000 + rep)}, rep)
	}
	if hSum/reps >= rSum/reps {
		t.Fatalf("halving mean entropy %.3f not below random %.3f", hSum/reps, rSum/reps)
	}
}

// TestExpectedEntropyAfterIsReduction: over the two outcomes of the
// halving pool, the branch read's weights sum to one, each branch's row is
// the marginals of a test-local clone of the model (its snapshot restored,
// then updated with the outcome) times the weight, and the expected
// posterior entropy Σ_y P(y)·H(π | y) falls by close to the one bit an even
// split removes. The model itself is left alone.
func TestExpectedEntropyAfterIsReduction(t *testing.T) {
	m := newModel(t, uniform(8, 0.2), dilution.Ideal{})
	before := entropy(t, m)
	sel := Select(m, Options{})
	rows, err := posterior.Branches(m).BranchMarginals([]bitvec.Mask{sel.Pool})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewPool(1)
	defer pool.Close()
	var after, total float64
	for b, y := range []dilution.Outcome{dilution.Negative, dilution.Positive} {
		row, w := rows[b*9:b*9+8], rows[b*9+8]
		clone := *snap // a restore adopts its snapshot's Dense slice
		clone.Dense = slices.Clone(snap.Dense)
		c, err := posterior.FromSnapshot(pool, &clone)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Update(sel.Pool, y); err != nil {
			t.Fatal(err)
		}
		marg, err := c.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		for i := range marg {
			if math.Abs(row[i]-w*marg[i]) > 1e-12 {
				t.Fatalf("%v branch: joint marginal %d = %v, clone's %v × weight %v", y, i, row[i], marg[i], w)
			}
		}
		total += w
		after += w * entropy(t, c)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("predictive weights sum to %v", total)
	}
	if got := entropy(t, m); got != before {
		t.Fatalf("the clones moved the model's entropy %v -> %v", before, got)
	}
	if after >= before {
		t.Fatalf("expected entropy %v did not drop from %v", after, before)
	}
	// A near-perfect split removes close to one bit.
	if before-after < 0.5 {
		t.Fatalf("halving removed only %v bits in expectation", before-after)
	}
}

func TestSelectLookaheadDepths(t *testing.T) {
	m := newModel(t, uniform(10, 0.1), dilution.Ideal{})
	sels := lookahead(t, m, 3, Options{MaxPool: 6})
	if len(sels) != 3 {
		t.Fatalf("got %d selections, want 3", len(sels))
	}
	for i, s := range sels {
		if s.Pool == 0 {
			t.Fatalf("selection %d empty", i)
		}
		if s.Pool.Count() > 6 {
			t.Fatalf("selection %d exceeds MaxPool: %v", i, s.Pool)
		}
	}
	// Depth 1 equals plain halving.
	one := lookahead(t, m, 1, Options{MaxPool: 6})
	plain := Select(m, Options{MaxPool: 6})
	if one[0].Pool != plain.Pool {
		t.Fatalf("lookahead depth 1 chose %v, plain %v", one[0].Pool, plain.Pool)
	}
	// Invalid depth coerces to 1.
	if got := lookahead(t, m, 0, Options{}); len(got) != 1 {
		t.Fatalf("depth 0 returned %d selections", len(got))
	}
}

func TestSelectLookaheadDistinctStagePools(t *testing.T) {
	// Look-ahead pools in the same stage should not be identical: a
	// repeated pool answers a question already asked.
	m := newModel(t, uniform(12, 0.15), dilution.Ideal{})
	sels := lookahead(t, m, 2, Options{})
	if sels[0].Pool == sels[1].Pool {
		t.Fatalf("stage repeats pool %v", sels[0].Pool)
	}
}

func TestRandomStrategy(t *testing.T) {
	m := newModel(t, uniform(9, 0.2), dilution.Ideal{})
	r := Random{Size: 4, Rng: rng.New(5)}
	p, err := r.Next(m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 4 {
		t.Fatalf("random pool size %d", p.Count())
	}
	if !p.SubsetOf(bitvec.Full(9)) {
		t.Fatalf("random pool %v outside cohort", p)
	}
	// Default size when Size invalid.
	r2 := Random{Rng: rng.New(5)}
	p2, err := r2.Next(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Count(); got != 5 {
		t.Fatalf("default random size %d, want (n+1)/2", got)
	}
}

func TestIndividualStrategy(t *testing.T) {
	risks := []float64{0.1, 0.48, 0.9}
	m := newModel(t, risks, dilution.Ideal{})
	p, err := Individual{}.Next(m)
	if err != nil {
		t.Fatal(err)
	}
	if p != bitvec.FromIndices(1) {
		t.Fatalf("individual chose %v, want subject 1 (closest to 1/2)", p)
	}
	if p.Count() != 1 {
		t.Fatal("individual pool not singleton")
	}
}

func TestDorfmanCyclesBlocks(t *testing.T) {
	m := newModel(t, uniform(10, 0.1), dilution.Ideal{})
	d := &Dorfman{BlockSize: 4}
	seen := bitvec.Mask(0)
	for i := 0; i < 3; i++ {
		p, err := d.Next(m)
		if err != nil {
			t.Fatal(err)
		}
		if p.Count() == 0 || p.Count() > 4 {
			t.Fatalf("block %d size %d", i, p.Count())
		}
		seen = seen.Join(p)
	}
	// Three blocks of 4 over 10 subjects wrap and cover everyone.
	if seen != bitvec.Full(10) {
		t.Fatalf("blocks covered %v", seen)
	}
}

func TestStrategyNames(t *testing.T) {
	m := newModel(t, uniform(4, 0.2), dilution.Ideal{})
	_ = m
	for _, s := range []Strategy{Halving{}, Halving{Opts: Options{LocalSearch: true}}, Random{Size: 2, Rng: rng.New(1)}, Individual{}, &Dorfman{BlockSize: 2}} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

// TestLookaheadAllocatesNoPosteriorCopy: one depth-8 selection at N=16
// weighs 2^7 outcome branches of a 512 KiB posterior, and allocates less
// than that posterior: the branch reads fold every branch in one pass over
// the posterior itself and hold 2^t rows of N+1 floats, never a branch copy.
func TestLookaheadAllocatesNoPosteriorCopy(t *testing.T) {
	const n = 16
	m := newModel(t, uniform(n, 0.06), dilution.Binary{Sens: 0.95, Spec: 0.99})
	if err := m.Update(bitvec.Full(n/2), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sels := lookahead(t, m, 8, Options{MaxPool: n})
	runtime.ReadMemStats(&after)
	if len(sels) != 8 {
		t.Fatalf("%d selections, want 8", len(sels))
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8)<<n; got >= limit {
		t.Fatalf("depth-8 selection allocated %d bytes, a posterior copy is %d", got, limit)
	}
}
