package lattice

import (
	"math"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/prob"
	"repro/internal/rng"
)

// randomPosterior builds a model with a non-trivial posterior: random
// risks, a few absorbed outcomes, and (optionally) exact zeros punched
// into the lattice to exercise the sparsity-skip paths.
func randomPosterior(t *testing.T, r *rng.Source, n int, zeros bool) *Model {
	t.Helper()
	return randomPosteriorParts(t, r, n, 0, zeros)
}

// randomPosteriorParts is randomPosterior on a given partition count;
// parts 0 draws one from 1 to 7.
func randomPosteriorParts(t *testing.T, r *rng.Source, n, parts int, zeros bool) *Model {
	t.Helper()
	pool := newTestPool(t)
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.02 + 0.5*r.Float64()
	}
	if parts == 0 {
		parts = 1 + r.Intn(7)
	}
	m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Binary{Sens: 0.93, Spec: 0.98}, Parts: parts})
	for round := 0; round < 3; round++ {
		pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
		if pm == 0 {
			pm = bitvec.FromIndices(r.Intn(n))
		}
		y := dilution.Negative
		if r.Bernoulli(0.5) {
			y = dilution.Positive
		}
		if err := m.Update(pm, y); err != nil {
			t.Fatal(err)
		}
	}
	if zeros {
		// Punch exact zeros into random states (and one whole aligned block
		// for n >= 9).
		post := m.Posterior()
		for k := 0; k < 1<<uint(n-2); k++ {
			post.Set(uint64(r.Intn(1<<uint(n))), 0)
		}
		if n > 8 {
			base := (uint64(r.Intn(1<<uint(n))) >> 8) << 8
			for s := base; s < base+256; s++ {
				post.Set(s, 0)
			}
		}
	}
	return m
}

// TestMarginalsFoldMatchesWalk: the halving folds sum each bit's mass
// pairwise where the per-state walk sums it in state order, so the two
// agree to accumulation-order rounding (1e-13 relative), not bit-for-bit.
// Every cohort size from 1 to 14 runs on partition counts that leave the
// fold ragged edges (3, 5), blocks shorter than a fold (8 parts of a small
// lattice) and a single partition, over posteriors with exact zeros.
func TestMarginalsFoldMatchesWalk(t *testing.T) {
	r := rng.New(303)
	for n := 1; n <= 14; n++ {
		for _, parts := range []int{1, 3, 5, 8} {
			m := randomPosteriorParts(t, r, n, parts, true)
			fold := m.Marginals()
			walk := marginalsWalk(m)
			for i := range walk {
				if math.Abs(fold[i]-walk[i]) > 1e-13*walk[i] {
					t.Fatalf("n=%d parts=%d: fold marginal[%d] %v vs walk %v", n, parts, i, fold[i], walk[i])
				}
			}
		}
	}
}

// minRankMassesWalk is the per-state form of the prefix-scan histogram
// (walk each state's bits for its minimum order-rank), kept as the oracle
// for RankTable.AddMinRankMasses.
func minRankMassesWalk(offset uint64, data []float64, order []int, out []float64) {
	k := uint8(len(order))
	var rank [64]uint8
	for i := range rank {
		rank[i] = k
	}
	for r, subj := range order {
		rank[subj] = uint8(r)
	}
	for j, w := range data {
		if w == 0 {
			continue
		}
		rmin := k
		for v := offset + uint64(j); v != 0; v &= v - 1 {
			if r := rank[bits.TrailingZeros64(v)]; r < rmin {
				rmin = r
			}
		}
		out[rmin] += w
	}
}

// TestPrefixScanTableBitForBit: the table scan visits states in the walk's
// order with one accumulator per rank, so the prefix masses must equal the
// per-state oracle exactly, whatever the partitioning and however short
// the ordering.
func TestPrefixScanTableBitForBit(t *testing.T) {
	r := rng.New(707)
	for n := 1; n <= 14; n++ {
		for _, parts := range []int{1, 3, 5, 8} {
			m := randomPosteriorParts(t, r, n, parts, true)
			order := r.Perm(n)[:1+r.Intn(n)]
			got := m.PrefixNegMasses(order)
			hist := m.post.ReduceVec(len(order)+1, func(_ int, offset uint64, data []float64, out []float64) {
				minRankMassesWalk(offset, data, order, out)
			})
			var acc prob.Accumulator
			for i := len(order) - 1; i >= 0; i-- {
				acc.Add(hist[i+1])
				if got[i] != acc.Value() {
					t.Fatalf("n=%d parts=%d order %v: prefix %d mass %v, oracle %v", n, parts, order, i, got[i], acc.Value())
				}
			}
		}
	}
}

// TestPriorDoublingBitForBit: building the prior by doubling applies the
// odds in the same ascending-bit order as walking each state's bits, so
// every stored state must equal the per-state oracle exactly. The carried
// scale is the reciprocal of the closed-form total, not of the oracle's
// swept one, so the settled masses agree with the normalized oracle to
// 1e-15 relative.
func TestPriorDoublingBitForBit(t *testing.T) {
	r := rng.New(808)
	pool := newTestPool(t)
	for _, n := range []int{1, 2, 7, 12, 16} { // 16 crosses into the parallel levels
		for _, parts := range []int{1, 3, 8} {
			risks := make([]float64, n)
			odds := make([]float64, n)
			logBase := 0.0
			for i := range risks {
				risks[i] = 0.01 + 0.9*r.Float64()
				odds[i] = risks[i] / (1 - risks[i])
				logBase += math.Log1p(-risks[i])
			}
			base := math.Exp(logBase)
			want := engine.VectorOver(pool, make([]float64, 1<<n), parts)
			want.ForPartitions(func(_ int, offset uint64, data []float64) {
				for j := range data {
					w := base
					for v := offset + uint64(j); v != 0; v &= v - 1 {
						w *= odds[bits.TrailingZeros64(v)]
					}
					data[j] = w
				}
			})
			m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Ideal{}, Parts: parts})
			for s := uint64(0); s < m.States(); s++ {
				if got := m.post.At(s); got != want.At(s) {
					t.Fatalf("n=%d parts=%d: stored prior[%d] = %v, oracle %v", n, parts, s, got, want.At(s))
				}
			}
			normalize(want)
			for s := uint64(0); s < m.States(); s++ {
				if got := m.StateMass(bitvec.Mask(s)); math.Abs(got-want.At(s)) > 1e-15*want.At(s) {
					t.Fatalf("n=%d parts=%d: prior[%d] = %v, normalized oracle %v", n, parts, s, got, want.At(s))
				}
			}
		}
	}
}

// TestNegMassesTiledMatchesUntiled: tiling regroups each candidate's
// plain partition sum into per-tile partial sums, so results match to
// accumulation-order rounding (sums of non-negative terms totalling <= 1;
// drift bounded well below 1e-12), not bit-for-bit. Partitions both
// smaller and larger than the 4096-state tile are covered.
func TestNegMassesTiledMatchesUntiled(t *testing.T) {
	r := rng.New(404)
	for _, n := range []int{8, 13, 14} { // 14: a single partition spans > 2 tiles
		m := randomPosterior(t, r, n, false)
		cands := make([]bitvec.Mask, 0, 24)
		for i := 0; i < 24; i++ {
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if pm == 0 {
				pm = bitvec.FromIndices(i % n)
			}
			cands = append(cands, pm)
		}
		tiled := m.NegMasses(cands)
		flat := negMassesUntiled(m, cands)
		for c := range cands {
			if math.Abs(tiled[c]-flat[c]) > 1e-12 {
				t.Fatalf("n=%d cand %d: tiled %v vs untiled %v", n, c, tiled[c], flat[c])
			}
		}
	}
}

// TestPredictiveMatchesDefinition checks the predictive probabilities the
// look-ahead branch read weighs its two branches by against the
// definition: the intersect-count distribution's dot product with the
// outcome table — P(positive | k) = dilution.PosProb for the positive
// branch, its complement for the negative one.
func TestPredictiveMatchesDefinition(t *testing.T) {
	r := rng.New(505)
	responses := []dilution.Response{
		dilution.Binary{Sens: 0.9, Spec: 0.97},
		dilution.Ideal{},
		dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.4},
		dilution.DefaultCt(),
	}
	for trial := 0; trial < 24; trial++ {
		n := 5 + r.Intn(6)
		pool := newTestPool(t)
		resp := responses[trial%len(responses)]
		m := mustNew(t, pool, Config{Risks: uniformRisks(n, 0.05+0.2*r.Float64()), Response: resp})
		if err := m.Update(bitvec.Full(n), dilution.Negative); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 6; probe++ {
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if pm == 0 {
				continue
			}
			pos := posTable(resp, pm)
			rows := m.BranchMarginals([]uint64{uint64(pm)}, [][]float64{pos})
			var want [2]float64
			for k, w := range intersectDist(m, pm) {
				want[0] += w * (1 - pos[k])
				want[1] += w * pos[k]
			}
			for b := range want {
				if got := rows[b*(n+1)+n]; math.Abs(got-want[b]) > 1e-12 {
					t.Fatalf("trial %d pool %v branch %d: predictive %v vs dot %v", trial, pm, b, got, want[b])
				}
			}
		}
	}
}

// posTable is a pool's branch table under resp.
func posTable(resp dilution.Response, pm bitvec.Mask) []float64 {
	pos := make([]float64, pm.Count()+1)
	for k := range pos {
		pos[k] = dilution.PosProb(resp, k, pm.Count())
	}
	return pos
}

// TestBranchReadsMatchOracle: both look-ahead reads agree with the
// per-state oracle (branchOracle) on random posteriors, partition counts
// that leave ragged edges, cohorts below one fold block and above it, and
// zero to four branch pools; the branch weights sum to the posterior's
// mass, and each branch's prefix clean masses are its histogram's suffix
// sums.
func TestBranchReadsMatchOracle(t *testing.T) {
	r := rng.New(515)
	resp := dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.98, D: 0.3}
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(10)
		m := randomPosteriorParts(t, r, n, 0, trial%3 == 0)
		pools := make([]uint64, r.Intn(5))
		pos := make([][]float64, len(pools))
		for j := range pools {
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			pools[j], pos[j] = uint64(pm), posTable(resp, pm)
		}
		if err := CheckBranches(pools, pos, n); err != nil {
			t.Fatal(err)
		}
		order := r.Perm(n)[:1+r.Intn(n)]
		wantMarg, wantClean := branchOracle(m, pools, pos, order)
		gotMarg := m.BranchMarginals(pools, pos)
		gotClean := m.BranchPrefixNegMasses(pools, pos, order)
		if len(gotMarg) != len(wantMarg) || len(gotClean) != len(wantClean) {
			t.Fatalf("trial %d: %d/%d floats, oracle %d/%d", trial, len(gotMarg), len(gotClean), len(wantMarg), len(wantClean))
		}
		for i := range wantMarg {
			if math.Abs(gotMarg[i]-wantMarg[i]) > 1e-12 {
				t.Fatalf("trial %d n=%d t=%d: marginal row slot %d = %v, oracle %v", trial, n, len(pools), i, gotMarg[i], wantMarg[i])
			}
		}
		for i := range wantClean {
			if math.Abs(gotClean[i]-wantClean[i]) > 1e-12 {
				t.Fatalf("trial %d n=%d t=%d: clean slot %d = %v, oracle %v", trial, n, len(pools), i, gotClean[i], wantClean[i])
			}
		}
		var total float64
		for b := 0; b < 1<<uint(len(pools)); b++ {
			total += gotMarg[b*(n+1)+n]
		}
		if mass := m.Mass(); math.Abs(total-mass) > 1e-12 {
			t.Fatalf("trial %d: branch weights sum to %v, posterior mass %v", trial, total, mass)
		}
	}
}

// TestCheckBranchesRefuses: every malformed branch read is refused.
func TestCheckBranchesRefuses(t *testing.T) {
	ok := [][]float64{{0.01, 0.9, 0.95}}
	for _, c := range []struct {
		name  string
		pools []uint64
		pos   [][]float64
	}{
		{"too many pools", make([]uint64, MaxBranchPools+1), make([][]float64, MaxBranchPools+1)},
		{"table count", []uint64{3}, nil},
		{"table length", []uint64{7}, ok},
		{"NaN entry", []uint64{3}, [][]float64{{0.01, math.NaN(), 0.9}}},
		{"entry above 1", []uint64{3}, [][]float64{{0.01, 1.5, 0.9}}},
		{"negative entry", []uint64{3}, [][]float64{{-0.1, 0.5, 0.9}}},
		{"infinite entry", []uint64{3}, [][]float64{{0.01, math.Inf(1), 0.9}}},
		{"pool outside cohort", []uint64{1<<4 | 1}, ok},
	} {
		if err := CheckBranches(c.pools, c.pos, 4); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := CheckBranches([]uint64{3}, ok, 4); err != nil {
		t.Fatalf("valid branch read refused: %v", err)
	}
}

// TestConditionInPlaceMatchesGather: the in-place collapse must agree with
// the allocating gather (conditionGather, the form conditioning had before
// it collapsed inside the receiver) state-for-state.
func TestConditionInPlaceMatchesGather(t *testing.T) {
	r := rng.New(606)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(7)
		m := randomPosterior(t, r, n, false)
		subject := r.Intn(n)
		positive := r.Bernoulli(0.5)
		want := conditionGather(m, subject, positive) // allocating reference; receiver unchanged
		got := m.ConditionInPlace(subject, positive)
		if (want == nil) != (got == nil) {
			t.Fatalf("trial %d: in-place nil=%v, reference nil=%v", trial, got == nil, want == nil)
		}
		if want == nil {
			continue
		}
		if got != m {
			t.Fatalf("trial %d: in-place did not return the receiver", trial)
		}
		if got.N() != want.N() || got.States() != want.States() {
			t.Fatalf("trial %d: shape %d/%d vs %d/%d", trial, got.N(), got.States(), want.N(), want.States())
		}
		for s := uint64(0); s < got.States(); s++ {
			// The reference sums the survivors after the gather, not before,
			// so its normaliser may differ in the last place.
			g, w := got.StateMass(bitvec.Mask(s)), want.StateMass(bitvec.Mask(s))
			if math.Abs(g-w) > 1e-15*w {
				t.Fatalf("trial %d: state %d mass in-place %v, reference %v", trial, s, g, w)
			}
		}
		gr, wr := got.Risks(), want.Risks()
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("trial %d: risk[%d] %v vs %v", trial, i, gr[i], wr[i])
			}
		}
	}
}

// TestConditionInPlaceZeroMassRejection: conditioning on an impossible
// event must return nil and leave the receiver intact (core.Session
// retries the complementary event on the same model).
func TestConditionInPlaceZeroMassRejection(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(4, 0.2), Response: dilution.Ideal{}})
	// An ideal negative test on subject 0 makes "subject 0 infected" a
	// zero-mass event.
	if err := m.Update(bitvec.FromIndices(0), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	before := m.Marginals()
	if got := m.ConditionInPlace(0, true); got != nil {
		t.Fatal("zero-mass event did not reject")
	}
	if m.N() != 4 || m.States() != 16 {
		t.Fatalf("receiver shape changed: N=%d states=%d", m.N(), m.States())
	}
	after := m.Marginals()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("receiver marginal[%d] changed: %v vs %v", i, before[i], after[i])
		}
	}
	// The complementary event must still work on the same receiver.
	if got := m.ConditionInPlace(0, false); got == nil {
		t.Fatal("complementary event rejected")
	}
	if m.N() != 3 {
		t.Fatalf("N=%d after complementary collapse", m.N())
	}
}

// TestCollapseBitMatchesOracle: for arbitrary runs (offset, len), every
// bit, both bases and two factors, the in-place gather must equal the
// per-state oracle bit-for-bit — state s survives iff s&bit == base and
// lands, times factor, at the index s has with the bit dropped — and the
// survivors must be the contiguous range [KeptBelow(lo), KeptBelow(hi)).
func TestCollapseBitMatchesOracle(t *testing.T) {
	r := rng.New(909)
	const n = 9
	full := make([]float64, 1<<n)
	for trial := 0; trial < 400; trial++ {
		for i := range full {
			full[i] = r.Float64()
		}
		lo := uint64(r.Intn(len(full) + 1))
		hi := lo + uint64(r.Intn(len(full)+1-int(lo)))
		if trial%8 == 0 {
			lo, hi = 0, uint64(len(full)) // the dense model's call
		}
		bit := uint64(1) << uint(trial%n)
		if trial%8 == 4 { // the copy path over several stretches, ragged at both ends
			bit = collapseCopyBit << uint(trial/8%2)
			lo = 3*bit + 5
			hi = lo + 4*bit + 3
		}
		base := bit * uint64(trial/n%2)
		low := bit - 1
		want := map[uint64]float64{} // collapsed index → mass
		for s := lo; s < hi; s++ {
			if s&bit == base {
				want[s&low|s>>1&^low] = full[s]
			}
		}
		run := append([]float64(nil), full[lo:hi]...)
		off, kept := CollapseBit(lo, run, bit, base)
		if off != KeptBelow(lo, bit, base) || off+uint64(kept) != KeptBelow(hi, bit, base) || kept != len(want) {
			t.Fatalf("[%d,%d) bit %#x base %#x: range [%d,+%d), want [%d,%d) holding %d",
				lo, hi, bit, base, off, kept, KeptBelow(lo, bit, base), KeptBelow(hi, bit, base), len(want))
		}
		for j, got := range run[:kept] {
			if w, ok := want[off+uint64(j)]; !ok || got != w {
				t.Fatalf("[%d,%d) bit %#x base %#x: state %d = %v, oracle %v (present %v)",
					lo, hi, bit, base, off+uint64(j), got, w, ok)
			}
		}
	}
}

// TestWaveGatherMatchesCollapseBit: ConditionInPlace's gather
// (collapseVector, collapseRange chunks in ShrinkGather's waves) must leave
// exactly what one serial CollapseBit of the same input leaves, for every
// bit and both bases, at sizes whose waves reach serialBelow and fan out
// over the pool.
func TestWaveGatherMatchesCollapseBit(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	for _, n := range []int{17, 18, 20} {
		want := make([]float64, 1<<n)
		for k := 0; k < n; k++ {
			bit := uint64(1) << uint(k)
			for _, base := range []uint64{0, bit} {
				v := engine.VectorOver(pool, make([]float64, 1<<n), 0)
				v.ForPartitions(func(_ int, offset uint64, data []float64) {
					for j := range data {
						data[j] = float64(offset+uint64(j)) + 0.5
					}
				})
				for j := range want {
					want[j] = float64(j) + 0.5
				}
				_, kept := CollapseBit(0, want, bit, base)
				collapseVector(v, bit, base)
				got := v.Slice()
				if len(got) != kept {
					t.Fatalf("N=%d bit %#x base %#x: %d states, want %d", n, bit, base, len(got), kept)
				}
				for j, x := range got {
					if x != want[j] {
						t.Fatalf("N=%d bit %#x base %#x: state %d = %v, serial %v", n, bit, base, j, x, want[j])
					}
				}
			}
		}
	}
}

// TestFillPriorMatchesWalk: the block-doubling prior of an arbitrary run
// applies each state's odds in ascending bit order, as the per-state walk
// does, so the two must agree bit-for-bit.
func TestFillPriorMatchesWalk(t *testing.T) {
	r := rng.New(1010)
	const n = 11
	odds := make([]float64, n)
	for i := range odds {
		odds[i] = 0.01 + 3*r.Float64()
	}
	base := 0.37
	for trial := 0; trial < 300; trial++ {
		lo := uint64(r.Intn(1 << n))
		hi := lo + uint64(r.Intn(1<<n+1-int(lo)))
		if trial%10 == 0 {
			lo, hi = 0, 1<<n
		}
		got := make([]float64, hi-lo)
		FillPrior(lo, got, base, odds)
		for j := range got {
			want := base
			for v := lo + uint64(j); v != 0; v &= v - 1 {
				want *= odds[bits.TrailingZeros64(v)]
			}
			if got[j] != want {
				t.Fatalf("[%d,%d): prior[%d] = %v, walk %v", lo, hi, lo+uint64(j), got[j], want)
			}
		}
	}
}

// raggedCuts returns ascending cut points 0 = c[0] <= … <= c[k] = n that
// include an empty run and, when n allows, a run of one state.
func raggedCuts(r *rng.Source, n int) []int {
	cuts := []int{0, n}
	for i := r.Intn(6); i > 0; i-- {
		cuts = append(cuts, r.Intn(n+1))
	}
	one := r.Intn(n)
	cuts = append(cuts, one, one, one+1) // [one, one) is empty, [one, one+1) one state
	sort.Ints(cuts)
	return cuts
}

// TestSliceKernelsSplitInvariant: each slice kernel, run over arbitrary
// ragged (offset, len) splits of a random posterior, must produce on every
// run exactly what a per-state loop written here produces on that run
// (`==`: the kernels keep the per-state accumulation order; the tiled
// candidate scan regroups sums per tile, so 1e-12, and MulLikelihood's
// total takes fold totals for whole blocks, so 1e-14 relative there, while
// its products and marginal partials stay `==`), and the run partials
// merged in order must agree with the per-state loop over the whole
// lattice to 1e-12 — a kernel may not depend on where its run starts.
func TestSliceKernelsSplitInvariant(t *testing.T) {
	r := rng.New(1111)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12 }
	for n := 2; n <= 12; n++ {
		full := randomPosterior(t, r, n, n%2 == 0).Posterior().Slice()
		pm := r.Uint64()&uint64(bitvec.Full(n)) | 1
		lik := make([]float64, bits.OnesCount64(pm)+1)
		for k := range lik {
			lik[k] = r.Float64()
		}
		masks := make([]uint64, 5)
		for c := range masks {
			masks[c] = r.Uint64() & uint64(bitvec.Full(n))
		}
		base := pm & r.Uint64()
		factor := 0.25 + r.Float64()

		// Whole-lattice per-state oracles.
		var wantMul, wantDot, wantWhere, wantEnt, wantMass float64
		wantClean := make([]float64, len(masks))
		for s, w := range full {
			l := lik[bits.OnesCount64(uint64(s)&pm)]
			wantMul += w * l
			wantDot += w * l
			wantMass += w
			if uint64(s)&pm == base {
				wantWhere += w
			}
			if w > 0 {
				wantEnt -= w * math.Log(w)
			}
			for c, cm := range masks {
				if uint64(s)&cm == 0 {
					wantClean[c] += w
				}
			}
		}

		var gotMul, gotDot, gotWhere, gotEnt, gotMass prob.Accumulator
		gotClean := make([]float64, len(masks))
		cuts := raggedCuts(r, len(full))
		for i := 0; i+1 < len(cuts); i++ {
			off := uint64(cuts[i])
			run := full[cuts[i]:cuts[i+1]]

			// The run's own per-state oracle, same accumulators in state order.
			var oMul, oDot, oWhere, oEnt, oMass prob.Accumulator
			oClean := make([]float64, len(masks))
			oData := make([]float64, len(run))
			for j, w := range run {
				s := off + uint64(j)
				l := lik[bits.OnesCount64(s&pm)]
				oData[j] = w * l
				oMul.Add(w * l)
				if w != 0 {
					oDot.Add(w * l)
				}
				oMass.Add(w)
				if s&pm == base {
					oWhere.Add(w)
				}
				if w > 0 {
					oEnt.Add(-w * math.Log(w))
				}
				for c, cm := range masks {
					if s&cm == 0 {
						oClean[c] += w
					}
				}
			}

			if acc := DotLikelihood(off, run, pm, lik); acc != oDot {
				t.Fatalf("n=%d run [%d,+%d): DotLikelihood %v, oracle %v", n, off, len(run), acc, oDot)
			} else {
				gotDot.Merge(acc)
			}
			if acc := SumWhere(off, run, pm, base); acc != oWhere {
				t.Fatalf("n=%d run [%d,+%d): SumWhere %v, oracle %v", n, off, len(run), acc, oWhere)
			} else {
				gotWhere.Merge(acc)
			}
			if acc := SumWhere(off, run, 0, 0); acc != oMass {
				t.Fatalf("n=%d run [%d,+%d): SumWhere(mask 0) %v, oracle total %v", n, off, len(run), acc, oMass)
			} else {
				gotMass.Merge(acc)
			}
			if acc := EntropyNats(run); acc != oEnt {
				t.Fatalf("n=%d run [%d,+%d): EntropyNats %v, oracle %v", n, off, len(run), acc, oEnt)
			} else {
				gotEnt.Merge(acc)
			}
			clean := make([]float64, len(masks))
			AddCleanMasses(off, run, masks, clean)
			for c := range masks {
				if !near(clean[c], oClean[c]) {
					t.Fatalf("n=%d run [%d,+%d): AddCleanMasses[%d] %v, oracle %v", n, off, len(run), c, clean[c], oClean[c])
				}
				gotClean[c] += clean[c]
			}
			scaled := append([]float64(nil), run...)
			Scale(scaled, factor)
			mul := append([]float64(nil), run...)
			marg, wantMarg := make([]float64, n), make([]float64, n)
			acc := MulLikelihood(off, mul, pm, lik, marg)
			// A run that holds a whole aligned block adds that block's fold
			// total, not its states: 1e-14 relative there, == elsewhere.
			if head, tail := blockSpan(off, off+uint64(len(run))); head >= tail && acc != oMul ||
				math.Abs(acc.Value()-oMul.Value()) > 1e-14*oMul.Value() {
				t.Fatalf("n=%d run [%d,+%d): MulLikelihood sum %v, oracle %v", n, off, len(run), acc, oMul)
			}
			gotMul.Merge(acc)
			AddMarginals(off, oData, wantMarg)
			for i := range wantMarg {
				if marg[i] != wantMarg[i] {
					t.Fatalf("n=%d run [%d,+%d): MulLikelihood marginal partial %d = %v, AddMarginals of the products %v", n, off, len(run), i, marg[i], wantMarg[i])
				}
			}
			for j := range run {
				if mul[j] != oData[j] || scaled[j] != run[j]*factor {
					t.Fatalf("n=%d state %d: MulLikelihood %v (oracle %v), Scale %v (oracle %v)",
						n, off+uint64(j), mul[j], oData[j], scaled[j], run[j]*factor)
				}
			}
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"MulLikelihood", gotMul.Value(), wantMul}, {"DotLikelihood", gotDot.Value(), wantDot},
			{"SumWhere", gotWhere.Value(), wantWhere}, {"EntropyNats", gotEnt.Value(), wantEnt},
			{"SumWhere(mask 0)", gotMass.Value(), wantMass},
		} {
			if !near(c.got, c.want) {
				t.Fatalf("n=%d cuts %v: merged %s %v, whole-lattice oracle %v", n, cuts, c.name, c.got, c.want)
			}
		}
		for c := range masks {
			if !near(gotClean[c], wantClean[c]) {
				t.Fatalf("n=%d cuts %v: merged AddCleanMasses[%d] %v, whole-lattice oracle %v", n, cuts, c, gotClean[c], wantClean[c])
			}
		}
	}
}
