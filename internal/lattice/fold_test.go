package lattice

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/prob"
	"repro/internal/rng"
)

// relNear reports |got−want| <= tol·|want|.
func relNear(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

// runsOf returns the (offset, length) of every partition of v, in order.
func runsOf(v *engine.Vector) (offsets []uint64, lengths []int) {
	offsets, lengths = make([]uint64, v.Parts()), make([]int, v.Parts())
	v.ForPartitions(func(p int, offset uint64, data []float64) {
		offsets[p], lengths[p] = offset, len(data)
	})
	return offsets, lengths
}

// TestMulLikelihoodFoldMatchesPerState: on every partition of posteriors
// with exact zeros, under a table with a zero entry, the folding update
// kernel must leave exactly the per-state products, exactly AddMarginals of
// those products as its marginal partials, and a total within 1e-14
// relative of the per-state compensated sum — for every cohort size from 1
// to 14 on partition counts that give it ragged edges (3, 5), runs shorter
// than a block (8 parts of a small lattice) and a single run.
func TestMulLikelihoodFoldMatchesPerState(t *testing.T) {
	r := rng.New(2301)
	for n := 1; n <= 14; n++ {
		for _, parts := range []int{1, 3, 5, 8} {
			post := randomPosteriorParts(t, r, n, parts, true).Posterior()
			full := post.Slice()
			pm := r.Uint64()&uint64(bitvec.Full(n)) | 1<<uint(r.Intn(n))
			lik := make([]float64, bitvec.Mask(pm).Count()+1)
			for k := range lik {
				lik[k] = r.Float64()
			}
			lik[r.Intn(len(lik))] = 0
			offsets, lengths := runsOf(post)
			for p, off := range offsets {
				run := append([]float64(nil), full[off:off+uint64(lengths[p])]...)
				want, wantAcc := mulLikelihoodPerState(off, run, pm, lik)
				wantMarg, marg := make([]float64, n), make([]float64, n)
				AddMarginals(off, want, wantMarg)
				acc := MulLikelihood(off, run, pm, lik, marg)
				for j := range want {
					if run[j] != want[j] {
						t.Fatalf("n=%d parts=%d: product of state %d = %v, per-state %v", n, parts, off+uint64(j), run[j], want[j])
					}
				}
				for i := range wantMarg {
					if marg[i] != wantMarg[i] {
						t.Fatalf("n=%d parts=%d run %d: marginal partial %d = %v, AddMarginals of the products %v", n, parts, p, i, marg[i], wantMarg[i])
					}
				}
				if !relNear(acc.Value(), wantAcc.Value(), 1e-14) {
					t.Fatalf("n=%d parts=%d run %d: total %v, per-state compensated sum %v", n, parts, p, acc.Value(), wantAcc.Value())
				}
			}
		}
	}
}

// TestRowHistogramMatchesWalk: from rowScanMin states up the prefix
// histogram adds whole blocks into rows, which regroups each slot's sum, so
// it agrees with the per-state loop to 1e-13 relative — at offset 0 and at
// 5·len, on block-aligned and ragged runs, for an ordering whose ranks sit
// in the high bits (many rows) and one that lives in the low byte (one
// row). One state below the crossover the per-state loop runs, and the
// histogram is the bit walk's exactly.
func TestRowHistogramMatchesWalk(t *testing.T) {
	r := rng.New(2302)
	const n = 18 // 6·2^15 states fit
	data := make([]float64, rowScanMin+300)
	for j := range data {
		if data[j] = r.Float64(); r.Intn(8) == 0 {
			data[j] = 0
		}
	}
	orders := map[string][]int{"many rows": r.Perm(n), "one row": {5, 0, 7, 2}}
	for name, order := range orders {
		tbl, err := NewRankTable(order, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			offset uint64
			len    int
			rows   bool
		}{
			{0, rowScanMin, true}, {5 * rowScanMin, rowScanMin, true},
			{37, rowScanMin + 263, true}, {5*rowScanMin + 255, rowScanMin + 2, true},
			{0, rowScanMin - 1, false}, {5*rowScanMin + 3, rowScanMin - 1, false},
		} {
			got, want := make([]float64, len(order)+1), make([]float64, len(order)+1)
			tbl.AddMinRankMasses(run.offset, data[:run.len], got)
			minRankMassesWalk(run.offset, data[:run.len], order, want)
			for slot := range want {
				if run.rows && !relNear(got[slot], want[slot], 1e-13) || !run.rows && got[slot] != want[slot] {
					t.Fatalf("%s, run [%d,+%d): slot %d = %v, per-state walk %v", name, run.offset, run.len, slot, got[slot], want[slot])
				}
			}
		}
	}
}

// TestSumWhereStretchesMatchWalk: for every bit and both bases of an N=12
// lattice cut at ragged offsets, SumWhere — by stretches from bit 2 up —
// must agree with the masked per-state walk to 1e-14 relative, the run
// partials merged in order too; and an event whose every state is exactly
// zero has mass exactly 0, which is what the conditioning preflight tests.
func TestSumWhereStretchesMatchWalk(t *testing.T) {
	r := rng.New(2303)
	const n = 12
	full := randomPosterior(t, r, n, true).Posterior().Slice()
	for b := 0; b < n; b++ {
		bit := uint64(1) << uint(b)
		for _, base := range []uint64{0, bit} {
			dead := append([]float64(nil), full...)
			for s := range dead {
				if uint64(s)&bit == base {
					dead[s] = 0
				}
			}
			var got, want, gotDead prob.Accumulator
			cuts := raggedCuts(r, len(full))
			for i := 0; i+1 < len(cuts); i++ {
				off, run := uint64(cuts[i]), full[cuts[i]:cuts[i+1]]
				acc, ref := SumWhere(off, run, bit, base), sumWhereWalk(off, run, bit, base)
				if !relNear(acc.Value(), ref.Value(), 1e-14) {
					t.Fatalf("bit %d base %#x run [%d,+%d): %v, masked walk %v", b, base, off, len(run), acc.Value(), ref.Value())
				}
				got.Merge(acc)
				want.Merge(ref)
				gotDead.Merge(SumWhere(off, dead[cuts[i]:cuts[i+1]], bit, base))
			}
			if !relNear(got.Value(), want.Value(), 1e-14) {
				t.Fatalf("bit %d base %#x cuts %v: merged %v, masked walk %v", b, base, cuts, got.Value(), want.Value())
			}
			if gotDead.Value() != 0 {
				t.Fatalf("bit %d base %#x: an all-zero event has mass %v", b, base, gotDead.Value())
			}
		}
	}
}

// TestSumWhereOddMasks: a mask above every state (up to the top bit,
// whose stretch stride 2·mask wraps to 0) and a base with bits outside
// its mask still answer what the masked walk does, and return.
func TestSumWhereOddMasks(t *testing.T) {
	data := []float64{0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625}
	for _, c := range []struct{ mask, base uint64 }{
		{1 << 63, 0}, {1 << 63, 1 << 63}, {1 << 62, 0}, {1 << 40, 0},
		{4, 1}, {4, 5}, {8, 1 << 63}, {3, 4},
	} {
		got, want := SumWhere(1, data, c.mask, c.base), sumWhereWalk(1, data, c.mask, c.base)
		if got.Value() != want.Value() { //lint:allow floats both sides run the same per-state walk or return exactly 0
			t.Errorf("SumWhere(mask %#x, base %#x) = %v, masked walk %v", c.mask, c.base, got.Value(), want.Value())
		}
	}
}

// TestPriorClosedFormTotalAndPrefix: the total New takes its scale from and
// the prefix masses a model at its prior answers are closed forms of the
// risks; both must be what sweeping the lattice FillDoubling wrote finds —
// the total within 4 ulps per subject of the compensated Sum, the prefix
// masses within 1e-13 of the swept histogram's suffix sums.
func TestPriorClosedFormTotalAndPrefix(t *testing.T) {
	pool := newTestPool(t)
	r := rng.New(2304)
	for n := 1; n <= 16; n++ {
		risks := make([]float64, n)
		for i := range risks {
			risks[i] = 0.01 + 0.9*r.Float64()
		}
		m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Ideal{}, Parts: 1 + n%4})
		base, odds, err := PriorOdds(risks)
		if err != nil {
			t.Fatal(err)
		}
		closed, swept := PriorTotal(base, odds), m.post.Sum()
		if math.Abs(closed-swept) > 4*float64(n)*0x1p-52*swept {
			t.Fatalf("n=%d: closed-form total %v, swept %v (%.1f ulps)", n, closed, swept, math.Abs(closed-swept)/(0x1p-52*swept))
		}
		order := r.Perm(n)[:1+r.Intn(n)]
		tbl, err := NewRankTable(order, n)
		if err != nil {
			t.Fatal(err)
		}
		if !m.prior {
			t.Fatalf("n=%d: a fresh model is not at its prior", n)
		}
		neg := m.PrefixNegMasses(order)
		hist := m.post.ReduceVec(len(order)+1, func(_ int, offset uint64, data []float64, out []float64) {
			tbl.AddMinRankMasses(offset, data, out)
		})
		var acc prob.Accumulator
		for i := len(order) - 1; i >= 0; i-- {
			acc.Add(hist[i+1])
			if want := acc.Value() * m.scale; math.Abs(neg[i]-want) > 1e-13 {
				t.Fatalf("n=%d order %v: prior prefix mass %d = %v, swept %v", n, order, i, neg[i], want)
			}
		}
	}
}

// TestDegeneratePriorRefusedBeforeAllocation: with every risk the largest
// float below 1 the all-negative mass underflows to 0 from 21 subjects up,
// the closed-form total is 0, and New must say so — at N=30 it can only do
// that because the check precedes the 8 GiB allocation.
func TestDegeneratePriorRefusedBeforeAllocation(t *testing.T) {
	pool := newTestPool(t)
	if m, err := New(pool, Config{Risks: uniformRisks(MaxSubjects, 1-0x1p-53), Response: dilution.Ideal{}}); err == nil {
		t.Fatalf("a prior of total 0 was built (scale %v)", m.scale)
	}
	if _, err := New(pool, Config{Risks: uniformRisks(8, 1-0x1p-53), Response: dilution.Ideal{}}); err != nil {
		t.Fatalf("8 subjects at the same risk still have mass: %v", err)
	}
}

// poolTasks returns how many tasks reg has seen submitted to its pool
// (inline ones included: they count as tasks too).
func poolTasks(reg *obs.Registry) (n uint64) {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "sbgt_engine_pool_tasks_total" {
			n = c.Value
		}
	}
	return n
}

// TestHeldMarginalsRules pins when Marginals reads the vector the last
// Update left behind and when it sweeps, by the pool tasks it submits:
// none straight after Update (and what it returns is, to 1e-15 relative,
// AddMarginals of the settled vector); a sweep after ConditionInPlace,
// after Restore and once Posterior has handed the storage out. Clone
// carries the held vector.
func TestHeldMarginalsRules(t *testing.T) {
	reg := obs.NewRegistry()
	pool := engine.NewPool(2)
	defer pool.Close()
	pool.Instrument(reg)
	r := rng.New(2305)
	const n = 12
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.02 + 0.4*r.Float64()
	}
	cfg := Config{Risks: risks, Response: dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.99, D: 0.35}, Parts: 5}
	sweeps := func(what string, m *Model, want bool) []float64 {
		t.Helper()
		before := poolTasks(reg)
		marg := m.Marginals()
		if swept := poolTasks(reg) > before; swept != want {
			t.Fatalf("%s: Marginals swept the lattice: %v, want %v", what, swept, want)
		}
		return marg
	}
	m := mustNew(t, pool, cfg)
	for round := 0; round < 4; round++ {
		pm := bitvec.Mask(r.Uint64())&bitvec.Full(n) | 1
		if err := m.Update(pm, dilution.Outcome{Positive: round%2 == 0}); err != nil {
			t.Fatal(err)
		}
		held := sweeps("after Update", m, false)
		cloned := sweeps("clone of an updated model", m.Clone(), false)
		want := make([]float64, n)
		AddMarginals(0, m.Clone().settle().Slice(), want)
		for i := range want {
			if !relNear(held[i], want[i], 1e-15) || cloned[i] != held[i] {
				t.Fatalf("round %d: held marginal %d = %v (clone %v), AddMarginals of the settled vector %v", round, i, held[i], cloned[i], want[i])
			}
		}
	}
	if m.ConditionInPlace(3, false) == nil {
		t.Fatal("condition rejected")
	}
	sweeps("after ConditionInPlace", m, true)
	if err := m.Update(bitvec.FromIndices(1, 4), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	sweeps("after the next Update", m, false)
	post := m.Posterior().Slice()
	sweeps("after Posterior was handed out", m, true)
	restored, err := Restore(pool, Config{Risks: m.Risks(), Response: cfg.Response, Parts: 5}, post, m.Tests())
	if err != nil {
		t.Fatal(err)
	}
	sweeps("after Restore", restored, true)
}
