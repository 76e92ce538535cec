package lattice

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/dilution"
	"repro/internal/prob"
)

// This file holds every per-state loop of the lattice and cluster
// packages: plain functions over one contiguous run of states (offset = the
// state index of data[0]). The dense model runs them once per partition
// and the cluster executor once per shard or chunk, so both backends
// execute the same instructions; each keeps only its own reduction shape
// and merge order. A loop over posterior states written anywhere else in
// the two packages is a bug (engine.Vector's own primitives — Scale, Sum,
// FillDoubling — sit below them).
//
//	prior        PriorOdds, PriorTotal, PriorPrefixNegMasses, FillPrior, PriorEntropy
//	update       LikelihoodTable, MulLikelihood
//	reductions   AddMarginals, RankTable.AddMinRankMasses, AddCleanMasses,
//	             SumWhere, DotLikelihood, EntropyNats
//	look-ahead   CheckBranches, AddBranchMarginals,
//	             RankTable.AddBranchMinRankMasses, SuffixCleanMasses
//	conditioning KeptBelow, CollapseBit (then AddMarginals), EventMayBeEmpty
//	rescaling    ValidFactor, Scale, MergeVec
//	input checks FirstInvalid

// foldBits is the split point of the marginal kernel: an aligned block of
// 2^foldBits states shares its high bits, so the block total is added to
// each shared high bit once per block, and the low bits come out of the
// halving folds.
const foldBits = 8

// foldLen is the aligned block length of the marginal kernel.
const foldLen = 1 << foldBits

// addMarginalsWalk accumulates each state's mass onto its set bits with
// the per-state bit walk, and into acc: the ragged-edge helper of
// AddMarginals and MulLikelihood, and the reference they are tested against.
func addMarginalsWalk(offset uint64, data []float64, out []float64, acc *prob.Accumulator) {
	for j := range data {
		w := data[j]
		if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		acc.Add(w)
		for v := offset + uint64(j); v != 0; v &= v - 1 {
			out[bits.TrailingZeros64(v)] += w
		}
	}
}

// foldHalves writes lo[j]+hi[j] to dst[j] and returns Σ hi, the mass of
// the bit that separates the two halves. Four independent partial sums
// keep the additions off one latency chain. len(lo) must be a multiple
// of 4; dst may alias lo.
func foldHalves(dst, lo, hi []float64) float64 {
	hi = hi[:len(lo)]
	dst = dst[:len(lo)]
	var a0, a1, a2, a3 float64
	for j := 0; j+3 < len(lo); j += 4 {
		h0, h1, h2, h3 := hi[j], hi[j+1], hi[j+2], hi[j+3]
		a0 += h0
		a1 += h1
		a2 += h2
		a3 += h3
		dst[j] = lo[j] + h0
		dst[j+1] = lo[j+1] + h1
		dst[j+2] = lo[j+2] + h2
		dst[j+3] = lo[j+3] + h3
	}
	return (a0 + a1) + (a2 + a3)
}

// foldBlock adds to out the marginal contributions of the aligned block at
// state b and returns the block's total, which the last fold leaves behind:
// bit 7's mass is the sum of the upper half; adding the upper half onto the
// lower leaves a 128-state block whose upper half is bit 6's mass, and so on
// down to bit 0, and the total goes to each high bit the block shares.
func foldBlock(b uint64, blk *[foldLen]float64, scratch *[foldLen / 2]float64, out []float64) float64 {
	out[foldBits-1] += foldHalves(scratch[:], blk[:foldLen/2], blk[foldLen/2:])
	for bit, half := foldBits-2, foldLen/4; half >= 4; bit, half = bit-1, half/2 {
		out[bit] += foldHalves(scratch[:half], scratch[:half], scratch[half:2*half])
	}
	// Four states are left: bit 1 splits them 2+2, bit 0 odd from even.
	out[1] += scratch[2] + scratch[3]
	even, odd := scratch[0]+scratch[2], scratch[1]+scratch[3]
	out[0] += odd
	total := even + odd
	for v := b >> foldBits; v != 0; v &= v - 1 {
		out[foldBits+bits.TrailingZeros64(v)] += total
	}
	return total
}

// blockSpan returns the aligned blocks the run [offset, end) covers whole,
// as [head, tail) (head >= tail: none); the ragged edges go state by state.
func blockSpan(offset, end uint64) (head, tail uint64) {
	return (offset + foldLen - 1) &^ uint64(foldLen-1), end &^ uint64(foldLen-1)
}

// AddMarginals accumulates onto out[i] the mass of every state in the run
// that has bit i set — one partition's (or one shard's) contribution to
// the marginals — and returns the run's compensated total. out must cover
// every bit set in any state of the run.
//
// Aligned foldLen-state blocks take the halving folds (foldBlock): two
// additions per state with no data-dependent branch, one compensated add
// per block. The sums are pairwise, so they are at least as accurate as
// the per-state walk, from which they differ in the last ulps. Ragged
// edges (a run need not start or end on a block boundary) take the walk.
// The order of every addition is fixed by (offset, len(data)).
func AddMarginals(offset uint64, data []float64, out []float64) prob.Accumulator {
	var acc prob.Accumulator
	head, tail := blockSpan(offset, offset+uint64(len(data)))
	if head >= tail {
		addMarginalsWalk(offset, data, out, &acc)
		return acc
	}
	addMarginalsWalk(offset, data[:head-offset], out, &acc)
	var scratch [foldLen / 2]float64
	for b := head; b < tail; b += foldLen {
		acc.Add(foldBlock(b, (*[foldLen]float64)(data[b-offset:]), &scratch, out))
	}
	addMarginalsWalk(tail, data[tail-offset:], out, &acc)
	return acc
}

// RankTable is the lookup state of the prefix scan for one subject
// ordering: a state's minimum order-rank is min(low[s&255], the minimum
// rank among the bits of s>>8), so the per-state work is one table load.
type RankTable struct {
	k    uint8      // len(order); the rank of a state disjoint from the ordering
	rank [64]uint8  // rank[i] = position of subject i in the ordering, k if absent
	low  [256]uint8 // minimum rank among the set bits of a low byte
}

// NewRankTable validates order against a cohort of n subjects (each
// subject in range and listed at most once) and builds its table.
func NewRankTable(order []int, n int) (*RankTable, error) {
	k := len(order)
	if k == 0 || k > n {
		return nil, fmt.Errorf("order has %d subjects for cohort of %d", k, n)
	}
	t := &RankTable{k: uint8(k)}
	for i := range t.rank {
		t.rank[i] = t.k
	}
	for r, subj := range order {
		if subj < 0 || subj >= n {
			return nil, fmt.Errorf("order subject %d outside cohort of %d", subj, n)
		}
		if t.rank[subj] != t.k {
			return nil, fmt.Errorf("duplicate subject %d in order", subj)
		}
		t.rank[subj] = uint8(r)
	}
	t.low[0] = t.k
	for j := 1; j < len(t.low); j++ {
		t.low[j] = min(t.low[j&(j-1)], t.rank[bits.TrailingZeros(uint(j))])
	}
	return t, nil
}

// highRank is the minimum rank among the bits of s above its low byte.
func (t *RankTable) highRank(s uint64) uint8 {
	high := t.k
	for v := s >> 8; v != 0; v &= v - 1 {
		high = min(high, t.rank[8+bits.TrailingZeros64(v)])
	}
	return high
}

// addMinRankWalk is the per-state form of AddMinRankMasses: states in index
// order, one accumulator per slot, so bit-for-bit a per-state bit walk's;
// the high part of the minimum is computed once per 256-state block.
func (t *RankTable) addMinRankWalk(offset uint64, data []float64, out []float64) {
	for i := 0; i < len(data); {
		s := offset + uint64(i)
		high := t.highRank(s)
		j := int(s & 255)
		run := data[i:min(len(data), i+256-j)]
		for _, w := range run {
			out[min(t.low[j&255], high)] += w
			j++
		}
		i += len(run)
	}
}

// rowScanMin is the run length from which AddMinRankMasses histograms by
// rows; shorter, the rows cost more than they save (measured, DESIGN §5.2).
const rowScanMin = 1 << 15

// AddMinRankMasses histograms the run's mass by minimum order-rank: out[r]
// gains the mass of every state whose lowest-ranked infected subject has
// rank r, out[len(order)] the mass of states disjoint from the ordering.
//
// Adding every state to out[its rank] is a load-add-store chain through a
// few slots. A run of at least rowScanMin states instead adds each aligned
// 256-state block state-for-state into one 256-float row per high-bit
// minimum rank (made on first use) — 256 independent sums — and applies the
// low byte's ranks once per row at the end; ragged edges and shorter runs
// take the per-state loop. Rows regroup the additions: the two forms agree
// to 1e-13 relative, each fixed by (offset, len(data)).
func (t *RankTable) AddMinRankMasses(offset uint64, data []float64, out []float64) {
	out = out[:int(t.k)+1]
	if len(data) < rowScanMin {
		t.addMinRankWalk(offset, data, out)
		return
	}
	head, tail := blockSpan(offset, offset+uint64(len(data))) // foldLen is the low byte's 256
	t.addMinRankWalk(offset, data[:head-offset], out)
	rows := make([]*[256]float64, len(out))
	for b := head; b < tail; b += 256 {
		high := t.highRank(b)
		if rows[high] == nil {
			rows[high] = new([256]float64)
		}
		row, blk := rows[high], (*[256]float64)(data[b-offset:])
		for j := 0; j < len(blk); j += 4 {
			row[j] += blk[j]
			row[j+1] += blk[j+1]
			row[j+2] += blk[j+2]
			row[j+3] += blk[j+3]
		}
	}
	for high, row := range rows {
		if row != nil {
			for j, w := range row {
				out[min(t.low[j], uint8(high))] += w
			}
		}
	}
	t.addMinRankWalk(tail, data[tail-offset:], out)
}

// MaxBranchPools bounds the pools a branch read conditions on: a state has
// one factor per outcome branch, 2^t of them for t pools. It is one less
// than the deepest look-ahead a session runs (core.MaxLookahead), whose
// last pool is chosen over the branches of all the others.
const MaxBranchPools = 7

// CheckBranches validates the pools and outcome tables of a branch read
// over a cohort of n subjects: at most MaxBranchPools pools, each inside
// the cohort, each with a table of popcount(pool)+1 probabilities in [0,1]
// (pos[j][k] = P(pool j reads positive | k of its specimens infected),
// dilution.PosProb). The tables arrive from outside the process on the
// cluster wire, and a factor outside [0,1] would make a branch weight
// that is no probability.
func CheckBranches(pools []uint64, pos [][]float64, n int) error {
	if len(pools) > MaxBranchPools {
		return fmt.Errorf("%d branch pools, at most %d", len(pools), MaxBranchPools)
	}
	if len(pos) != len(pools) {
		return fmt.Errorf("%d branch tables for %d pools", len(pos), len(pools))
	}
	for j, pm := range pools {
		if n < 64 && pm>>uint(n) != 0 {
			return fmt.Errorf("branch pool %#x outside cohort of %d", pm, n)
		}
		if want := bits.OnesCount64(pm) + 1; len(pos[j]) != want {
			return fmt.Errorf("branch table %d has %d entries, want %d", j, len(pos[j]), want)
		}
		for k, p := range pos[j] {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("branch table %d entry %v at k=%d outside [0,1]", j, p, k)
			}
		}
	}
	return nil
}

// branchFactors writes f[b], for every outcome branch b of the pools, the
// factor state s takes in branch b: Π_j pos[j][k_j] if bit j of b is set
// (pool j read positive), else 1 − pos[j][k_j], with k_j = |s ∩ pools[j]|.
// The factors of one state sum to 1. len(f) must be 2^len(pools).
func branchFactors(s uint64, pools []uint64, pos [][]float64, f []float64) {
	f[0] = 1
	for j, pm := range pools {
		p := pos[j][bits.OnesCount64(s&pm)]
		half := 1 << uint(j)
		for b, w := range f[:half] {
			f[half+b] = w * p
			f[b] = w * (1 - p)
		}
	}
}

// branchBlocks is the working set of the branch kernels' block form. A
// block's branch-b weights are the block times one factor per pool: lvl[j]
// holds the block weighted by pools j..t−1 for the current branch, so
// stepping from branch b−1 to b redoes only the levels of the pools whose
// outcome bits changed — two multiplies per state per branch over a branch
// sweep — with the low byte's intersect counts from a table and the high
// bits' from one popcount per block. It lives on the kernel's stack.
type branchBlocks struct {
	pools []uint64
	pos   [][]float64
	low   [MaxBranchPools][foldLen]uint8 // |j ∩ pool| of a low byte j
	tab   [MaxBranchPools][]float64      // a pool's table shifted by the block's high-bit count
	lvl   [MaxBranchPools][foldLen]float64
}

func (bb *branchBlocks) init(pools []uint64, pos [][]float64) {
	bb.pools, bb.pos = pools, pos
	for p, pm := range pools {
		for j := range bb.low[p] {
			bb.low[p][j] = uint8(bits.OnesCount64(uint64(j) & pm))
		}
	}
}

// start points the tables at the aligned block at state base.
func (bb *branchBlocks) start(base uint64) {
	for p, pm := range bb.pools {
		bb.tab[p] = bb.pos[p][bits.OnesCount64(base&pm):]
	}
}

// weigh returns the block blk weighted by its branch-b factors. Called for
// b = 0, 1, 2, … in turn after start.
func (bb *branchBlocks) weigh(b int, blk *[foldLen]float64) *[foldLen]float64 {
	t := len(bb.pools)
	if t == 0 {
		return blk
	}
	c := t - 1 // the highest pool whose outcome differs from branch b−1's
	if b > 0 {
		c = bits.TrailingZeros(uint(b))
	}
	for p := c; p >= 0; p-- {
		src, dst, cnt, tp := blk, &bb.lvl[p], &bb.low[p], bb.tab[p]
		if p < t-1 {
			src = &bb.lvl[p+1]
		}
		if b>>uint(p)&1 == 1 {
			for j := range dst {
				dst[j] = src[j] * tp[cnt[j]]
			}
		} else {
			for j := range dst {
				dst[j] = src[j] * (1 - tp[cnt[j]])
			}
		}
	}
	return &bb.lvl[0]
}

// addBranchMarginalsWalk is AddBranchMarginals state by state: the
// ragged-edge helper and the whole of a run shorter than a block.
func addBranchMarginalsWalk(offset uint64, data []float64, pools []uint64, pos [][]float64, out []float64) {
	width := len(out) >> uint(len(pools))
	var fbuf [1 << MaxBranchPools]float64
	f := fbuf[:1<<uint(len(pools))]
	for j, w := range data {
		if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		s := offset + uint64(j)
		branchFactors(s, pools, pos, f)
		for b, fb := range f {
			row, x := out[b*width:(b+1)*width], w*fb
			row[width-1] += x
			for v := s; v != 0; v &= v - 1 {
				row[bits.TrailingZeros64(v)] += x
			}
		}
	}
}

// AddBranchMarginals is the first look-ahead read: for every outcome branch
// b of the pools (bit j of b set: pool j reads positive) it adds to row b
// of out — n+1 floats, so len(out) = 2^len(pools)·(n+1) — the run's joint
// masses P(S ∋ i, outcomes b) at [i] and P(outcomes b) at [n]: the branch
// posterior's marginals before normalisation and its predictive weight.
// pools and pos must have passed CheckBranches. Aligned blocks are weighted
// per branch (branchBlocks) and folded as in AddMarginals, ragged edges go
// state by state; the weights over all branches sum to the run's mass.
func AddBranchMarginals(offset uint64, data []float64, pools []uint64, pos [][]float64, out []float64) {
	head, tail := blockSpan(offset, offset+uint64(len(data)))
	if head >= tail {
		addBranchMarginalsWalk(offset, data, pools, pos, out)
		return
	}
	addBranchMarginalsWalk(offset, data[:head-offset], pools, pos, out)
	width := len(out) >> uint(len(pools))
	var bb branchBlocks
	var scratch [foldLen / 2]float64
	bb.init(pools, pos)
	for base := head; base < tail; base += foldLen {
		blk := (*[foldLen]float64)(data[base-offset:])
		bb.start(base)
		for b := 0; b < 1<<uint(len(pools)); b++ {
			row := out[b*width : (b+1)*width]
			row[width-1] += foldBlock(base, bb.weigh(b, blk), &scratch, row)
		}
	}
	addBranchMarginalsWalk(tail, data[tail-offset:], pools, pos, out)
}

// addBranchMinRankWalk is AddBranchMinRankMasses state by state.
func (t *RankTable) addBranchMinRankWalk(offset uint64, data []float64, pools []uint64, pos [][]float64, out []float64) {
	width := int(t.k) + 1
	var fbuf [1 << MaxBranchPools]float64
	f := fbuf[:1<<uint(len(pools))]
	for j, w := range data {
		if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		s := offset + uint64(j)
		branchFactors(s, pools, pos, f)
		r := int(min(t.low[s&255], t.highRank(s)))
		for b, fb := range f {
			out[b*width+r] += w * fb
		}
	}
}

// AddBranchMinRankMasses is the second look-ahead read: for every outcome
// branch b of the pools it histograms the run's branch-b mass by minimum
// order-rank into row b of out — len(order)+1 floats, laid out as
// AddMinRankMasses' histogram, so len(out) = 2^len(pools)·(len(order)+1).
// pools and pos must have passed CheckBranches.
func (t *RankTable) AddBranchMinRankMasses(offset uint64, data []float64, pools []uint64, pos [][]float64, out []float64) {
	head, tail := blockSpan(offset, offset+uint64(len(data)))
	if head >= tail {
		t.addBranchMinRankWalk(offset, data, pools, pos, out)
		return
	}
	t.addBranchMinRankWalk(offset, data[:head-offset], pools, pos, out)
	width := int(t.k) + 1
	var bb branchBlocks
	bb.init(pools, pos)
	for base := head; base < tail; base += foldLen {
		blk, high := (*[foldLen]float64)(data[base-offset:]), t.highRank(base)
		bb.start(base)
		for b := 0; b < 1<<uint(len(pools)); b++ {
			row := out[b*width : (b+1)*width]
			for j, x := range bb.weigh(b, blk) {
				row[min(t.low[j], high)] += x
			}
		}
	}
	t.addBranchMinRankWalk(tail, data[tail-offset:], pools, pos, out)
}

// SuffixCleanMasses turns rows of min-rank histograms (k+1 floats each, as
// AddBranchMinRankMasses leaves them) into rows of prefix clean masses (k
// floats each) in place, and returns them: clean[i] = Σ_{r>i} hist[r], the
// mass of states whose first-ranked infected subject lies beyond prefix i,
// summed with compensation as PrefixNegMasses sums it.
func SuffixCleanMasses(hist []float64, k int) []float64 {
	rows := len(hist) / (k + 1)
	for b := 0; b < rows; b++ {
		row := hist[b*(k+1) : (b+1)*(k+1)]
		var acc prob.Accumulator
		for i := k; i >= 1; i-- {
			acc.Add(row[i])
			row[i] = acc.Value()
		}
		copy(hist[b*k:], row[1:]) // rows only move down, so nothing unread is overwritten
	}
	return hist[:rows*k]
}

// KeptBelow counts the states s < x with s&bit == base: the index, in the
// lattice with bit collapsed out, of the first survivor at or after x.
func KeptBelow(x, bit, base uint64) uint64 {
	rest := x & (2*bit - 1) // position inside the aligned 2·bit block
	half := rest &^ bit     // … and inside its half
	if rest&bit != base {
		half = bit - base // the kept half lies wholly below rest (base 0) or above it
	}
	return x>>1&^(bit-1) + half
}

// CollapseBit conditions the run on s&bit == base, in place: the surviving
// states move to the front of data in state order, unscaled, and their
// indices lose the bit. The survivors of [lo, hi) are
// exactly the states [KeptBelow(lo), KeptBelow(hi)) of the halved lattice —
// a contiguous range, so a shard never hands a state to another owner —
// and survivor j is read from at or above slot j (no more states are
// dropped below the run than below any state in it), so the gather runs
// forward over its own storage. Survivors that read their own slot (for
// base 0, those below bit) are not touched: a negative collapse of a top
// bit is a truncation. It returns the new range's start and length. bit
// must be a power of two and base 0 or bit.
func CollapseBit(offset uint64, data []float64, bit, base uint64) (newOffset uint64, kept int) {
	newOffset = KeptBelow(offset, bit, base)
	kept = int(KeptBelow(offset+uint64(len(data)), bit, base) - newOffset)
	var from uint64
	if base == 0 && offset < bit {
		from = min(uint64(kept), bit-offset)
	}
	collapseRange(offset, data, bit, base, from, uint64(kept))
	return newOffset, kept
}

// collapseSource is the state survivor j of the halved lattice is read from.
func collapseSource(j, bit, base uint64) uint64 { return j&(bit-1) | j&^(bit-1)<<1 | base }

// collapseCopyBit is the narrowest bit whose bit-long stretches of survivors
// (each one contiguous source run) move faster with one copy than with the
// per-state loop (BenchmarkCollapseCopyWidth).
const collapseCopyBit = 8

// collapseRange is CollapseBit's gather of survivors [lo, hi) only, counted
// from the run's first survivor: one chunk of an engine.Vector.ShrinkGather wave.
func collapseRange(offset uint64, data []float64, bit, base, lo, hi uint64) {
	if bit < collapseCopyBit {
		collapseStates(offset, data, bit, base, lo, hi)
	} else {
		collapseStretches(offset, data, bit, base, lo, hi)
	}
}

func collapseStates(offset uint64, data []float64, bit, base, lo, hi uint64) {
	first := KeptBelow(offset, bit, base)
	for j := lo; j < hi; j++ {
		data[j] = data[collapseSource(first+j, bit, base)-offset]
	}
}

func collapseStretches(offset uint64, data []float64, bit, base, lo, hi uint64) {
	first := KeptBelow(offset, bit, base)
	for j := lo; j < hi; {
		sp := first + j
		end := min(hi, j+bit-sp&(bit-1)) // the end of sp's stretch
		copy(data[j:end], data[collapseSource(sp, bit, base)-offset:])
		j = end
	}
}

// EventMayBeEmpty reports whether an event must be summed (SumWhere) before
// a collapse destroys what it drops: when held (a model's held marginals)
// is nil or puts it below ½. A threshold crossing has half the mass or more.
func EventMayBeEmpty(held []float64, subject int, positive bool) bool {
	return held == nil || positive && held[subject] < 0.5 || !positive && held[subject] > 0.5
}

// FillPrior writes the product prior of the run: state s gets base times
// odds[i] for every set bit i, multiplied in ascending bit order — the
// order of the per-state bit walk, so the result is bit-for-bit the walk's.
// The run splits into aligned power-of-two blocks; a block doubles from
// base (level i is its first 2^i states times odds[i]) and then takes the
// odds of the high bits its states share, one pass each.
func FillPrior(offset uint64, data []float64, base float64, odds []float64) {
	for len(data) > 0 {
		k := min(bits.TrailingZeros64(offset), bits.Len(uint(len(data)))-1)
		blk := data[:1<<uint(k)]
		blk[0] = base
		for i := 0; i < k; i++ {
			half := 1 << uint(i)
			dst := blk[half : 2*half]
			for j, w := range blk[:half] {
				dst[j] = w * odds[i]
			}
		}
		for v := offset >> uint(k); v != 0; v &= v - 1 {
			f := odds[k+bits.TrailingZeros64(v)]
			for j := range blk {
				blk[j] *= f
			}
		}
		offset += uint64(len(blk))
		data = data[len(blk):]
	}
}

// PriorOdds validates the prior risks (each must lie in (0, 1): risk 0 or 1
// is a classified subject and does not enter the lattice) and returns the
// product prior in the form the fill kernels take: base = Π(1−p_i), the
// all-negative state's mass, and odds[i] = p_i/(1−p_i), the factor that
// setting bit i multiplies in.
func PriorOdds(risks []float64) (base float64, odds []float64, err error) {
	odds = make([]float64, len(risks))
	logBase := 0.0
	for i, p := range risks {
		if !(p > 0 && p < 1) {
			return 0, nil, fmt.Errorf("risk[%d] = %v outside (0,1)", i, p)
		}
		odds[i] = p / (1 - p)
		logBase += math.Log1p(-p)
	}
	return math.Exp(logBase), odds, nil
}

// PriorTotal is the total mass of the product prior FillPrior writes, Σ_S
// base·Π_{i∈S} odds[i] = base·Π(1+odds[i]): what a sweep sums to, within a
// few ulps per subject. A base that underflowed to 0 gives 0, no one's scale.
func PriorTotal(base float64, odds []float64) float64 {
	total := base
	for _, o := range odds {
		total *= 1 + o //lint:allow floats every partial product is the all-negative probability of the sub-cohort still to come, so it stays in [base, 1]
	}
	return total
}

// PriorPrefixNegMasses is the prefix scan of the product prior in closed
// form: subjects are independent, so the clean mass of order[0..i] is
// Π_{j≤i} (1−risks[order[j]]). order must have passed NewRankTable.
func PriorPrefixNegMasses(risks []float64, order []int) []float64 {
	neg := make([]float64, len(order))
	clean := 1.0
	for i, subj := range order {
		clean *= 1 - risks[subj] //lint:allow floats a clean-pool probability, reported as small as it is: the swept histogram gives the same value
		neg[i] = clean
	}
	return neg
}

// PriorEntropy is the entropy of the product prior in bits, in closed form:
// what a model still at its prior answers without reading the lattice.
// Subjects are independent, so their binary entropies add.
func PriorEntropy(risks []float64) float64 {
	var ent prob.Accumulator
	for _, p := range risks {
		ent.Add(-p*math.Log(p) - (1-p)*math.Log1p(-p))
	}
	return ent.Value() / math.Ln2
}

// FirstInvalid returns the index of the first entry that cannot be a
// lattice mass or a likelihood — negative, NaN or infinite — or −1. Input
// from outside the process (a checkpoint, a wire frame, a response model)
// passes through it before it touches a posterior: multiplied or spliced
// in, such a value could not be undone.
func FirstInvalid(ws []float64) int {
	for i, w := range ws {
		if !(w >= 0) || math.IsInf(w, 1) {
			return i
		}
	}
	return -1
}

// LikelihoodTable returns the checked likelihood of outcome y by infected
// count k = 0..size for a pool of size specimens. An update's likelihood
// depends on a state only through k, so this table is all a pass needs.
func LikelihoodTable(resp dilution.Response, y dilution.Outcome, size int) ([]float64, error) {
	lik := make([]float64, size+1)
	for k := range lik {
		lik[k] = resp.Likelihood(y, k, size)
	}
	if k := FirstInvalid(lik); k >= 0 {
		return nil, fmt.Errorf("response %q returned invalid likelihood %v at k=%d n=%d", resp.Name(), lik[k], k, size)
	}
	return lik, nil
}

// mulLikelihoodWalk is MulLikelihood's per-state edge form: the multiply,
// then the bit walk for marg and acc.
func mulLikelihoodWalk(offset uint64, data []float64, pool uint64, lik, marg []float64, acc *prob.Accumulator) {
	for j := range data {
		data[j] *= lik[bits.OnesCount64((offset+uint64(j))&pool)]
	}
	addMarginalsWalk(offset, data, marg, acc)
}

// MulLikelihood is the fused update pass: every state s of the run is
// multiplied in place by lik[|s ∩ pool|], marg gains the products' marginal
// partials — exactly what AddMarginals of the run would add afterwards —
// and the products' compensated sum is returned, whose reciprocal is the
// normaliser the model carries. lik must have popcount(pool)+1 entries and
// marg must cover every bit set in any state of the run.
//
// A compensated add per state is a dependency chain, and it, not memory,
// bounded the pass. So an aligned block is multiplied (the intersect count
// is the block's high-bit count plus a low-byte table's), folded for its
// marginals while still in L1, and the block total the fold leaves behind
// is added to the accumulator: one compensated add per block. The total is
// within 1e-14 relative of the per-state sum; the products are the same.
func MulLikelihood(offset uint64, data []float64, pool uint64, lik, marg []float64) prob.Accumulator {
	var acc prob.Accumulator
	head, tail := blockSpan(offset, offset+uint64(len(data)))
	if head >= tail {
		mulLikelihoodWalk(offset, data, pool, lik, marg, &acc)
		return acc
	}
	mulLikelihoodWalk(offset, data[:head-offset], pool, lik, marg, &acc)
	var low [foldLen]uint8 // |j ∩ pool| of a low byte j
	for j := range low {
		low[j] = uint8(bits.OnesCount64(uint64(j) & pool))
	}
	var scratch [foldLen / 2]float64
	for b := head; b < tail; b += foldLen {
		blk := (*[foldLen]float64)(data[b-offset:])
		high := lik[bits.OnesCount64(b&pool):]
		for j := 0; j < len(blk); j += 4 {
			blk[j] *= high[low[j]]
			blk[j+1] *= high[low[j+1]]
			blk[j+2] *= high[low[j+2]]
			blk[j+3] *= high[low[j+3]]
		}
		acc.Add(foldBlock(b, blk, &scratch, marg))
	}
	mulLikelihoodWalk(tail, data[tail-offset:], pool, lik, marg, &acc)
	return acc
}

// DotLikelihood returns Σ π(s)·lik[|s ∩ pool|] over the run, the predictive
// probability of the outcome lik describes; the run is not modified.
func DotLikelihood(offset uint64, data []float64, pool uint64, lik []float64) prob.Accumulator {
	var acc prob.Accumulator
	for j, w := range data {
		if w != 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			acc.Add(w * lik[bits.OnesCount64((offset+uint64(j))&pool)])
		}
	}
	return acc
}

// cleanMassTile is the candidate-scan tile length in states: 4096
// float64s = 32 KiB, sized so one tile stays L1-resident while every
// candidate re-reads it.
const cleanMassTile = 1 << 12

// AddCleanMasses adds to out[c] the run's mass of states disjoint from
// masks[c], for every candidate, in L1-sized tiles: the tile loop is
// outermost and the candidate loop re-reads the resident tile, so the
// run's memory traffic is paid once per tile rather than once per
// candidate. Per-candidate tile partials accumulate into out in fixed tile
// order, keeping the result deterministic. Kept out of line: inlined into
// a caller's closure the scan measured ~2× slower (BenchmarkSelectionScan).
//
//go:noinline
func AddCleanMasses(offset uint64, data []float64, masks []uint64, out []float64) {
	for t0 := 0; t0 < len(data); t0 += cleanMassTile {
		t1 := t0 + cleanMassTile
		if t1 > len(data) {
			t1 = len(data)
		}
		tile := data[t0:t1]
		toff := offset + uint64(t0)
		for c, pm := range masks {
			var acc float64
			for j := range tile {
				if (toff+uint64(j))&pm == 0 {
					acc += tile[j]
				}
			}
			out[c] += acc
		}
	}
}

// SumWhere returns the compensated mass of the run's states s with
// s&mask == base: a clean-pool mass (base 0), a conditioning event's mass
// (mask one bit), or with mask 0 the run's total. A base with a bit
// outside mask matches no state.
//
// States are visited in index order, one compensated add each — except
// under a single-bit mask of at least 4, the conditioning preflight: the
// kept states are then aligned mask-long stretches, each summed in four
// lanes with one compensated add per foldLen states at most (within 1e-14
// relative of the per-state sum; an all-zero event is exactly 0 either way).
func SumWhere(offset uint64, data []float64, mask, base uint64) prob.Accumulator {
	var acc prob.Accumulator
	if base&^mask != 0 {
		return acc // s&mask has no bit outside mask
	}
	// The top bit takes the per-state walk too: its stretch stride 2·mask
	// would wrap to 0.
	if mask < 4 || mask > 1<<62 || mask&(mask-1) != 0 {
		for j, w := range data {
			if (offset+uint64(j))&mask == base {
				acc.Add(w)
			}
		}
		return acc
	}
	end := offset + uint64(len(data))
	for s := offset&^(2*mask-1) | base; s < end; s += 2 * mask {
		for lo, hi := max(s, offset), min(s+mask, end); lo < hi; lo += foldLen {
			var a [4]float64
			for j, w := range data[lo-offset : min(hi, lo+foldLen)-offset] {
				a[j&3] += w
			}
			acc.Add((a[0] + a[1]) + (a[2] + a[3]))
		}
	}
	return acc
}

// EntropyNats returns Σ −p·ln p over the run's positive masses, in nats.
func EntropyNats(data []float64) prob.Accumulator {
	var acc prob.Accumulator
	for _, p := range data {
		if p > 0 {
			acc.Add(-p * math.Log(p))
		}
	}
	return acc
}

// ValidFactor reports whether f can rescale a posterior and leave it one:
// positive and finite. A zero, negative, NaN or infinite factor would
// destroy the masses it multiplies with no way back.
func ValidFactor(f float64) bool { return f > 0 && !math.IsInf(f, 1) }

// Scale multiplies every state of the run by factor.
func Scale(data []float64, factor float64) {
	for j := range data {
		data[j] *= factor
	}
}

// hostLittleEndian reports whether this host keeps a word's low byte
// first, as a checkpoint tail does.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WordBytes returns the memory of words as bytes, 8 a word, with no copy:
// a checkpoint tail's bytes once LittleEndianInPlace has run over them.
func WordBytes[T float64 | uint64](words []T) []byte {
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
}

// LittleEndianInPlace turns each word's bytes from this host's order to
// little-endian, or back, in place: nothing on a little-endian host and
// swapWords on a big-endian one, which is its own inverse. A checkpoint
// tail is written from and read into a posterior's storage through
// WordBytes, with this around the I/O.
func LittleEndianInPlace[T float64 | uint64](words []T) {
	if !hostLittleEndian {
		swapWords(words)
	}
}

// swapWords reverses the byte order of every word in place.
func swapWords[T float64 | uint64](words []T) {
	if len(words) == 0 {
		return
	}
	u := unsafe.Slice((*uint64)(unsafe.Pointer(&words[0])), len(words))
	for i, x := range u {
		u[i] = bits.ReverseBytes64(x)
	}
}

// MergeVec merges the n-entry vector partials of consecutive runs
// element-wise, in run order, through compensated accumulators — as
// engine.Vector.ReduceVec merges its partitions' — times scale.
func MergeVec(partials [][]float64, n int, scale float64) []float64 {
	out := make([]float64, n)
	for j := range out {
		var acc prob.Accumulator
		for _, part := range partials {
			acc.Add(part[j])
		}
		out[j] = acc.Value() * scale
	}
	return out
}
