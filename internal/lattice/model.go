// Package lattice implements the Bayesian lattice model for group testing.
//
// For a cohort of N subjects, the classification state space is the Boolean
// lattice 2^N: state S (a bitvec.Mask) means "exactly the subjects in S are
// infected". The model maintains a full posterior distribution over these
// 2^N states, stored as an engine.Vector partitioned across workers — the
// in-process analogue of SBGT's Spark RDD of lattice mass.
//
// The global index of a state in the vector is the state mask itself, so
// kernels recover the state from the partition offset with no lookup
// tables. All three SBGT computational kernels live here or directly on top:
//
//   - New: the product prior by doubling — level i of the lattice is the
//     first 2^i states times odds[i], one multiply per state; its total and
//     its prefix masses are closed forms of the risks, never swept,
//   - Update: multiply every state's mass by the dilution-aware likelihood
//     of an observed pooled-test outcome and renormalize — one fused pass
//     that also leaves the marginals behind: the normaliser is a scalar the
//     model carries into the next table,
//   - Marginals / NegMasses / PrefixNegMasses: the reductions that
//     drive classification and the halving test-selection scan, and
//     BranchMarginals / BranchPrefixNegMasses, the same two selection reads
//     over every outcome branch of a stage's chosen pools (look-ahead),
//   - ConditionInPlace: collapse a classified subject out of the lattice,
//     halving the state space (how sequential surveillance keeps the model
//     small), with the survivors' total and marginals from one pass.
//
// Every per-state loop lives once, in kernels.go, as a plain function
// over one contiguous run of states (offset, []float64): the prior fill
// (FillPrior, PriorOdds), the update multiply-fold-and-sum (MulLikelihood
// over a LikelihoodTable), the reductions (AddMarginals, RankTable's
// min-rank histogram, AddCleanMasses, SumWhere, DotLikelihood, EntropyNats,
// and the look-ahead branch forms AddBranchMarginals and
// AddBranchMinRankMasses), the conditioning gather (CollapseBit, KeptBelow) and Scale.
// Model's methods run them per partition and the cluster executor runs
// them on its shard; each backend owns only its reduction shape and merge
// order. A loop over posterior states outside kernels.go is a bug
// (engine.Vector's primitives sit below this package; the reference and
// ablation forms the kernels are tested against live in the _test files).
//
// The per-stage passes keep no per-state dependency chain: a compensated
// add or a store to a shared slot per state, not memory, is what bounded
// them. Marginals come from halving folds (AddMarginals): in an aligned
// 256-state block bit 7's mass is the sum of the upper half, and adding
// that half onto the lower leaves a 128-state block with the same property
// for bit 6, down to bit 0 — two additions per state, and the block total
// for the shared high bits, which is also what the update adds to its
// normaliser, once per block. The prefix scan (RankTable) reads a state's
// minimum order-rank as min(table[low byte], minimum over the high bits);
// long runs add whole blocks into one row per high-bit class.
package lattice

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/prob"
)

// MaxSubjects bounds the cohort size of one lattice model. 2^30 states of
// float64 is 8 GiB; anything past that needs the cluster runtime, and the
// index arithmetic below assumes the full lattice fits a uint64 count.
const MaxSubjects = 30

// Config configures a lattice model.
type Config struct {
	// Risks holds each subject's prior infection probability. Its length
	// sets the cohort size N. Every entry must lie in (0, 1): risk 0 or 1
	// is a classified subject and should not enter the lattice.
	Risks []float64
	// Response is the test-response model used by Update. Required.
	Response dilution.Response
	// Parts is the partition count for the posterior vector; <= 0 selects
	// the engine default (4 per worker).
	Parts int
}

// Model is a Bayesian lattice model over 2^N infection states. Methods
// that read or write the posterior are not safe for concurrent use with
// each other; the parallelism is inside each operation.
type Model struct {
	n     int
	risks []float64
	resp  dilution.Response
	post  *engine.Vector
	tests int // pooled tests absorbed so far (diagnostics)
	// scale is the carried normaliser: the posterior is scale × post. Update
	// folds it into its table, Marginals and PrefixNegMasses into their sums,
	// ConditionInPlace and Restore replace it; every other reader calls settle.
	scale float64
	prior bool // post is still New's product prior: its marginals are the risks, its entropy PriorEntropy
	// marg, when non-nil, is the risks at the prior, then the marginals the
	// last Update, ConditionInPlace or Restore pass left behind (its partials
	// × the new scale), good until a caller of Posterior changes post.
	marg []float64
}

// hold runs kernel over every partition, each into its own marginal
// partial, and returns the merged total; if it can normalise, its
// reciprocal becomes the scale and the partials, merged as ReduceVec does
// and times it, the held marginals.
func (m *Model) hold(kernel func(offset uint64, data, marg []float64) prob.Accumulator) float64 {
	partials := make([][]float64, m.post.Parts())
	total := m.post.ReduceSum(func(p int, offset uint64, data []float64) prob.Accumulator {
		partials[p] = make([]float64, m.n)
		return kernel(offset, data, partials[p])
	})
	if m.marg = nil; ValidFactor(1 / total) {
		m.scale, m.prior, m.marg = 1/total, false, MergeVec(partials, m.n, 1/total)
	}
	return total
}

// settle applies the carried normaliser and returns post, now the posterior.
func (m *Model) settle() *engine.Vector {
	if m.scale != 1 { //lint:allow floats exactly 1 marks "nothing pending", not a numeric test
		m.post.Scale(m.scale)
		m.scale = 1
	}
	return m.post
}

// collapseVector is CollapseBit over the whole vector, gathered in
// ShrinkGather's waves: ConditionInPlace's collapse.
func collapseVector(v *engine.Vector, bit, base uint64) {
	v.ShrinkGather(v.Len()/2, v.Parts(), func(j uint64) uint64 { return collapseSource(j, bit, base) },
		func(data []float64, lo, hi uint64) { collapseRange(0, data, bit, base, lo, hi) })
}

// validate checks cfg and returns its product prior's base and odds.
func validate(cfg Config) (base float64, odds []float64, err error) {
	n := len(cfg.Risks)
	if n == 0 {
		return 0, nil, fmt.Errorf("lattice: empty cohort")
	}
	if n > MaxSubjects {
		return 0, nil, fmt.Errorf("lattice: cohort size %d exceeds max %d (use the cluster runtime)", n, MaxSubjects)
	}
	if cfg.Response == nil {
		return 0, nil, fmt.Errorf("lattice: nil response model")
	}
	if base, odds, err = PriorOdds(cfg.Risks); err != nil {
		return 0, nil, fmt.Errorf("lattice: %v", err)
	}
	return base, odds, nil
}

// alloc returns a model of a validated cfg's cohort around post, for New
// and Restore to fill.
func alloc(cfg Config, post *engine.Vector) *Model {
	return &Model{
		n:     len(cfg.Risks),
		risks: append([]float64(nil), cfg.Risks...),
		resp:  cfg.Response,
		post:  post,
	}
}

// New builds the prior lattice model on the given pool.
//
// The prior is the independent-risk product measure
//
//	π(S) = Π_{i∈S} p_i · Π_{i∉S} (1−p_i),
//
// the all-negative constant times the odds product Π_{i∈S} p_i/(1−p_i).
// Setting bit i multiplies a state's mass by odds[i], so the lattice is
// built by doubling: level i is the first 2^i states times odds[i], one
// multiply per state (engine.Vector.FillDoubling). The product sums to 1 up
// to rounding; that total is PriorTotal's closed form, not a sweep, and its
// reciprocal is the carried scale. A degenerate prior (total 0: the risks'
// all-negative mass underflowed) is refused before the 2^N allocation.
//
// The fill writes every state, so the storage is a pool spare of exactly
// 2^N states when the pool keeps one (a lattice Released on the pool) and
// a fresh array otherwise (Pool.TakeSpare).
func New(pool *engine.Pool, cfg Config) (*Model, error) {
	base, odds, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	total := PriorTotal(base, odds)
	if !ValidFactor(1 / total) {
		return nil, fmt.Errorf("lattice: degenerate prior (total %v)", total)
	}
	states := uint64(1) << uint(len(cfg.Risks))
	backing := pool.TakeSpare(states, states)
	if backing == nil {
		backing = make([]float64, states)
	}
	m := alloc(cfg, engine.VectorOver(pool, backing, cfg.Parts))
	m.post.FillDoubling(base, odds)
	m.scale, m.prior, m.marg = 1/total, true, m.Risks()
	return m, nil
}

// N returns the number of unclassified subjects in the lattice.
func (m *Model) N() int { return m.n }

// States returns the number of lattice states, 2^N.
func (m *Model) States() uint64 { return m.post.Len() }

// Tests returns how many pooled-test outcomes have been absorbed.
func (m *Model) Tests() int { return m.tests }

// Response returns the test-response model updates use.
func (m *Model) Response() dilution.Response { return m.resp }

// Risks returns the prior risk vector (a copy).
func (m *Model) Risks() []float64 { return append([]float64(nil), m.risks...) }

// Release hands the lattice's storage, at the capacity it was opened
// with, to its pool as a spare for the next lattice it fits (New of the
// same 2^N, or a restore whose tail is read into it):
// engine.Vector.Release. The model must not be used afterwards.
func (m *Model) Release() { m.post.Release() }

// Posterior exposes the partitioned posterior for engine-level consumers
// (the halving scan and the cluster runtime). Callers must not mutate it —
// but the storage it hands out is mutable, so the held marginals end here
// and the next Marginals sweeps.
func (m *Model) Posterior() *engine.Vector {
	m.marg = nil
	return m.settle()
}

// StateMass returns the posterior mass of one lattice state.
func (m *Model) StateMass(s bitvec.Mask) float64 { return m.settle().At(uint64(s)) }

// Update folds one observed pooled-test outcome into the posterior:
// every state S is reweighted by the likelihood of outcome y for a pool
// with k = |S ∩ pool| infected among |pool| specimens, then the lattice is
// renormalized. The likelihood depends on the state only through k, so it
// is precomputed into a (|pool|+1)-entry table, the pending scale folded in,
// and the reweighting is one MulLikelihood pass that hands back the
// products' total and marginal partials. The total's reciprocal is the new
// scale — stored mass stays within one predictive factor of 1, so nothing
// drifts — and the partials, merged as ReduceVec merges them and times that
// scale, are held for the Marginals call that follows every update.
//
// Update returns an error if the pool is empty, references subjects outside
// the cohort, or the outcome has zero likelihood under every state — with
// the posterior untouched: a table with an entry that could zero the
// lattice is summed (DotLikelihood) before anything is multiplied.
func (m *Model) Update(pool bitvec.Mask, y dilution.Outcome) error {
	if pool == 0 {
		return fmt.Errorf("lattice: empty pool")
	}
	if !pool.SubsetOf(bitvec.Full(m.n)) {
		return fmt.Errorf("lattice: pool %v outside cohort of %d", pool, m.n)
	}
	lik, err := LikelihoodTable(m.resp, y, pool.Count())
	if err != nil {
		return fmt.Errorf("lattice: %v", err)
	}
	Scale(lik, m.scale) // the pending normaliser rides in the table
	total := 1.0
	if !ValidFactor(1 / slices.Min(lik)) { // a zero entry: look before multiplying
		total = m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
			return DotLikelihood(offset, data, uint64(pool), lik)
		})
	}
	if ValidFactor(1 / total) {
		total = m.hold(func(offset uint64, data, marg []float64) prob.Accumulator {
			return MulLikelihood(offset, data, uint64(pool), lik, marg)
		})
	}
	if !ValidFactor(1 / total) {
		return fmt.Errorf("lattice: outcome %v on pool %v has zero total likelihood (total %v)", y, pool, total)
	}
	m.tests++
	return nil
}

// WriteStates writes the lattice's stored mass to w in state order, as
// little-endian float64 bits, with one Write straight from its storage
// (WriteWords) — how a session checkpoint's dense tail is written. The
// carried scale is not applied: the bytes are the posterior times a
// positive factor, which Restore renormalises away by its own sum. It is a
// read: the storage, the scale and the held marginals stay as they were.
func (m *Model) WriteStates(w io.Writer) error { return WriteWords(w, m.post.Data()) }

// WriteWords writes words to w as little-endian 8-byte words (a float64 as
// its IEEE-754 bits) with one Write straight from their memory. A
// big-endian host swaps them to little-endian for the Write and back after
// it (LittleEndianInPlace), so words read the same afterwards either way.
func WriteWords[T float64 | uint64](w io.Writer, words []T) error {
	LittleEndianInPlace(words)
	_, err := w.Write(WordBytes(words))
	LittleEndianInPlace(words)
	return err
}

// Restore rebuilds a model from a previously captured posterior (state
// order, length 2^len(cfg.Risks), at any positive scale) and test counter
// — how a session checkpoint's dense tail becomes a model again
// (posterior.FromSnapshot).
// The model adopts posterior as its storage, with no copy: the caller
// hands the slice over and must not use it afterwards (on an error it is
// left as it was). One FirstInvalid pass checks it and one AddMarginals
// pass folds it: the total's reciprocal is the carried scale, so a
// checkpoint cannot smuggle in an unnormalized lattice, and the marginals
// are held. It is never taken for a prior.
func Restore(pool *engine.Pool, cfg Config, posterior []float64, tests int) (*Model, error) {
	if _, _, err := validate(cfg); err != nil {
		return nil, err
	}
	if states := uint64(1) << uint(len(cfg.Risks)); uint64(len(posterior)) != states {
		return nil, fmt.Errorf("lattice: posterior has %d states, cohort of %d needs %d",
			len(posterior), len(cfg.Risks), states)
	}
	if tests < 0 {
		return nil, fmt.Errorf("lattice: negative test count %d", tests)
	}
	if i := FirstInvalid(posterior); i >= 0 {
		return nil, fmt.Errorf("lattice: invalid posterior mass %v", posterior[i])
	}
	m := alloc(cfg, engine.VectorOver(pool, posterior, cfg.Parts))
	if total := m.hold(AddMarginals); !ValidFactor(1 / total) {
		return nil, fmt.Errorf("lattice: restored posterior has zero mass")
	}
	m.tests = tests
	return m, nil
}
