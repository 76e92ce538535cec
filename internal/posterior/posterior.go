// Package posterior defines the one interface every posterior
// representation in the reproduction implements, and the three conforming
// backends: the dense engine-backed lattice (internal/lattice), the
// truncated sparse support (internal/sparse), and the distributed TCP
// cluster driver (internal/cluster).
//
// Sessions, studies, and checkpoints program against Model and stay
// backend-generic; a shared conformance suite (conformance_test.go)
// exercises every backend through the same scripted scenarios so a new
// representation only has to satisfy one contract. Every method that
// touches the posterior is fallible — the cluster backend can lose an
// executor mid-kernel — and the in-process backends fail only once a
// dense model is closed or conditioned away, so callers pay one uniform
// error path instead of a panic/trap bridge per transport.
package posterior

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/sparse"
)

// Kind names a posterior backend.
type Kind string

// The three backends.
const (
	KindDense   Kind = "dense"   // full 2^N lattice on the in-process engine
	KindSparse  Kind = "sparse"  // truncated support with an explicit error bound
	KindCluster Kind = "cluster" // sharded lattice across TCP executors
)

// ParseKind maps a flag value to a Kind. The empty string selects dense,
// matching Spec's zero value.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindDense:
		return KindDense, nil
	case KindSparse:
		return KindSparse, nil
	case KindCluster:
		return KindCluster, nil
	}
	return "", fmt.Errorf("posterior: unknown backend %q (want dense, sparse, or cluster)", s)
}

// Model is a Bayesian posterior over the 2^N infection states of one
// cohort, abstracted over representation. It carries exactly the surface
// sessions need: the update/reduction kernels that drive classification
// and halving test selection, conditioning for sequential collapse, and a
// snapshot hook for checkpoints.
//
// Model is a superset of halving.Posterior, so any Model can be passed to
// halving.SelectOn directly. Implementations are not safe for concurrent
// use, matching the models they wrap.
type Model interface {
	// N returns the number of unclassified subjects.
	N() int
	// Kind identifies the backend.
	Kind() Kind
	// Risks returns the prior risk vector (a copy).
	Risks() []float64
	// Response returns the assay model updates use.
	Response() dilution.Response
	// Tests returns how many pooled-test outcomes have been absorbed.
	Tests() int

	// Update folds one observed pooled-test outcome into the posterior.
	Update(pool bitvec.Mask, y dilution.Outcome) error
	// Marginals returns each subject's posterior infection probability.
	Marginals() ([]float64, error)
	// NegMasses returns P(S ∩ cand = ∅ | data) for every candidate pool.
	NegMasses(cands []bitvec.Mask) ([]float64, error)
	// PrefixNegMasses returns the clean masses of every nested prefix of
	// the subject ordering (the halving selection scan).
	PrefixNegMasses(order []int) ([]float64, error)
	// Entropy returns the posterior entropy in bits.
	Entropy() (float64, error)
	// Summary returns the marginals and the entropy together: the digest a
	// session reads when it opens. A fresh model answers both from its
	// risks, with no pass and no round.
	Summary() (*Summary, error)

	// Condition collapses subject onto a known status and returns the
	// reduced model over the remaining N−1 subjects. It returns (nil, nil)
	// — receiver unchanged and still usable — when the event has zero
	// posterior mass, the subject index is invalid, or only one subject
	// remains. On success, any underlying resources (e.g. cluster
	// connections) transfer to the returned model: the receiver must not
	// be used or Closed afterwards.
	Condition(subject int, positive bool) (Model, error)

	// Snapshot captures the posterior for checkpointing. The result is
	// independent of the model (safe to hold across further updates).
	Snapshot() (*Snapshot, error)

	// Close releases backend resources: a cluster model's connections and
	// local executors, a dense model's lattice storage (which its engine
	// pool keeps as the spare for the next dense open of the same size).
	// After Close every fallible method returns an error naming the closed
	// model. A sparse model holds nothing to release. Close is idempotent.
	Close() error
}

// Summary is the posterior digest a session opens with.
type Summary struct {
	// Marginals is each subject's posterior infection probability.
	Marginals []float64
	// EntropyBits is the Shannon entropy of the posterior in bits.
	EntropyBits float64
}

// summarize is every backend's Summary: its own Marginals, then its own
// Entropy. The adapters call it on themselves, below Instrument, so one
// Summary records one op="summary" observation and none for the two reads.
func summarize(m Model) (*Summary, error) {
	marg, err := m.Marginals()
	if err != nil {
		return nil, err
	}
	ent, err := m.Entropy()
	if err != nil {
		return nil, err
	}
	return &Summary{Marginals: marg, EntropyBits: ent}, nil
}

// Snapshot is a backend-tagged capture of a posterior, the unit
// checkpoints serialize. Exactly one payload family is populated: Dense
// for dense and cluster models (a cluster posterior is gathered to the
// driver and restores as a dense model), States/Mass/Eps/Pruned for
// sparse models.
type Snapshot struct {
	Kind     Kind
	Risks    []float64
	Response dilution.Response
	Tests    int

	// Dense / cluster payload: the full posterior in state order.
	Dense []float64

	// Sparse payload: the retained support and its truncation accounting.
	States []uint64
	Mass   []float64
	Eps    float64
	Pruned float64
}

// FromSnapshot rebuilds a Model from a snapshot. Dense and cluster
// snapshots restore as dense models on the given pool (resuming onto a
// live cluster is a deployment decision, not a checkpoint property);
// sparse snapshots restore as sparse models and ignore pool. A dense
// model adopts snap.Dense as its storage (lattice.Restore): the snapshot
// is handed over, and its Dense slice must not be used afterwards — copy
// it first to restore one snapshot twice. A restore brings its own
// storage, so the pool's spare goes either way (engine.Pool.DropSpare; a
// reader that can fill the spare takes it before it builds the snapshot).
func FromSnapshot(pool *engine.Pool, snap *Snapshot) (Model, error) {
	if snap == nil {
		return nil, fmt.Errorf("posterior: nil snapshot")
	}
	pool.DropSpare()
	switch snap.Kind {
	case KindDense, KindCluster:
		m, err := lattice.Restore(pool, lattice.Config{
			Risks:    snap.Risks,
			Response: snap.Response,
		}, snap.Dense, snap.Tests)
		if err != nil {
			return nil, err
		}
		return FromLattice(m), nil
	case KindSparse:
		m, err := sparse.Restore(sparse.Config{
			Risks:    snap.Risks,
			Response: snap.Response,
			Eps:      snap.Eps,
		}, snap.States, snap.Mass, snap.Pruned, snap.Tests)
		if err != nil {
			return nil, err
		}
		return FromSparse(m), nil
	}
	return nil, fmt.Errorf("posterior: unknown snapshot kind %q", snap.Kind)
}

// Lattice returns the in-process lattice under m (Instrument's wrapper
// seen through), or nil when m keeps its posterior elsewhere: a sparse
// support or cluster shards. A checkpoint writes a dense tail from it in
// place (lattice.Model.WriteStates), where Snapshot would settle the
// lattice and copy it. A spent dense model (closed or conditioned) has no
// lattice of its own: nil.
func Lattice(m Model) *lattice.Model {
	if d, ok := Base(m).(*Dense); ok && d.spent == nil {
		return d.m
	}
	return nil
}

// Branches returns the look-ahead reads of m, on every backend. With no
// pools they are m's own Marginals (with the one branch's weight, 1,
// appended) and PrefixNegMasses. With pools, each pool's outcome table is
// P(positive | k infected) = dilution.PosProb under m's response, and the
// read is one pass over the posterior (one round on the cluster) that
// weights each state by its branch factors, with no copy of the posterior.
func Branches(m Model) halving.Branches { return branches{m} }

type branches struct{ Model }

func (b branches) BranchMarginals(pools []bitvec.Mask) ([]float64, error) {
	if len(pools) == 0 {
		marg, err := b.Marginals()
		if err != nil {
			return nil, err
		}
		return append(marg, 1), nil
	}
	return b.read(pools, nil)
}

func (b branches) BranchPrefixNegMasses(pools []bitvec.Mask, order []int) ([]float64, error) {
	if len(pools) == 0 || len(order) == 0 {
		return b.PrefixNegMasses(order)
	}
	return b.read(pools, order)
}

// read is the one switch over backends for the branch reads: the marginal
// read for a nil order, the prefix read of order otherwise.
func (b branches) read(pools []bitvec.Mask, order []int) ([]float64, error) {
	masks := make([]uint64, len(pools))
	pos := make([][]float64, len(pools))
	size := 0
	for _, p := range pools {
		size += p.Count() + 1
	}
	flat, resp := make([]float64, size), b.Response()
	for j, p := range pools {
		masks[j] = uint64(p)
		pos[j], flat = flat[:p.Count()+1], flat[p.Count()+1:]
		for k := range pos[j] {
			pos[j][k] = dilution.PosProb(resp, k, p.Count())
		}
	}
	if err := lattice.CheckBranches(masks, pos, b.N()); err != nil {
		return nil, fmt.Errorf("posterior: %v", err)
	}
	switch x := Base(b.Model).(type) {
	case *Dense:
		if x.spent != nil {
			return nil, x.spent
		}
		if order == nil {
			return x.m.BranchMarginals(masks, pos), nil
		}
		return x.m.BranchPrefixNegMasses(masks, pos, order), nil
	case *Sparse:
		if order == nil {
			return x.m.BranchMarginals(masks, pos), nil
		}
		return x.m.BranchPrefixNegMasses(masks, pos, order), nil
	case *Cluster:
		if order == nil {
			return x.m.BranchMarginals(masks, pos)
		}
		return x.m.BranchPrefixNegMasses(masks, pos, order)
	}
	return nil, fmt.Errorf("posterior: no branch reads for a %s model", b.Kind())
}
