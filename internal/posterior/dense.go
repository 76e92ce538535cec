package posterior

import (
	"errors"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/lattice"
)

// Dense adapts the full in-process lattice model to the Model interface.
// Its fallible methods fail only once the model is spent: after Close,
// whose storage went back to the engine pool for the next dense open, or
// after a Condition, whose lattice the returned model now owns. A spent
// model answers every fallible method with an error naming why, never
// with another model's mass.
type Dense struct {
	m     *lattice.Model
	spent error // what every fallible method answers once the model no longer owns its lattice
}

// What a spent dense model answers.
var (
	errDenseClosed      = errors.New("posterior: dense model is closed; its storage went back to the engine pool")
	errDenseConditioned = errors.New("posterior: dense model was conditioned; its lattice belongs to the model Condition returned")
)

// FromLattice wraps an existing dense model.
func FromLattice(m *lattice.Model) *Dense { return &Dense{m: m} }

// N returns the cohort size.
func (d *Dense) N() int { return d.m.N() }

// Kind returns KindDense.
func (d *Dense) Kind() Kind { return KindDense }

// Risks returns the prior risk vector (a copy).
func (d *Dense) Risks() []float64 { return d.m.Risks() }

// Response returns the assay model.
func (d *Dense) Response() dilution.Response { return d.m.Response() }

// Tests returns how many outcomes have been absorbed.
func (d *Dense) Tests() int { return d.m.Tests() }

// Update folds one pooled-test outcome into the posterior.
func (d *Dense) Update(pool bitvec.Mask, y dilution.Outcome) error {
	if d.spent != nil {
		return d.spent
	}
	return d.m.Update(pool, y)
}

// Marginals returns each subject's posterior infection probability.
func (d *Dense) Marginals() ([]float64, error) {
	if d.spent != nil {
		return nil, d.spent
	}
	return d.m.Marginals(), nil
}

// NegMasses scores every candidate pool.
func (d *Dense) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	if d.spent != nil {
		return nil, d.spent
	}
	return d.m.NegMasses(cands), nil
}

// PrefixNegMasses returns the nested-prefix clean masses.
func (d *Dense) PrefixNegMasses(order []int) ([]float64, error) {
	if d.spent != nil {
		return nil, d.spent
	}
	return d.m.PrefixNegMasses(order), nil
}

// Entropy returns the posterior entropy in bits.
func (d *Dense) Entropy() (float64, error) {
	if d.spent != nil {
		return 0, d.spent
	}
	return d.m.Entropy(), nil
}

// Summary returns the marginals and the entropy.
func (d *Dense) Summary() (*Summary, error) { return summarize(d) }

// Condition collapses subject onto a known status; see Model.Condition.
// The interface transfers ownership on success, so the dense backend uses
// the in-place collapse: the lattice storage is reused rather than
// reallocated, and on rejection (nil, nil) the receiver is untouched. On
// success the receiver is spent, and its Close does nothing.
func (d *Dense) Condition(subject int, positive bool) (Model, error) {
	if d.spent != nil {
		return nil, d.spent
	}
	out := d.m.ConditionInPlace(subject, positive)
	if out == nil {
		return nil, nil
	}
	d.spent = errDenseConditioned
	return FromLattice(out), nil
}

// Snapshot captures the full posterior in state order.
func (d *Dense) Snapshot() (*Snapshot, error) {
	if d.spent != nil {
		return nil, d.spent
	}
	return &Snapshot{
		Kind:     KindDense,
		Risks:    d.m.Risks(),
		Response: d.m.Response(),
		Tests:    d.m.Tests(),
		Dense:    d.m.Posterior().Slice(),
	}, nil
}

// Close hands the lattice's storage to its engine pool as the spare for
// the next dense open of the same size (lattice.Model.Release) and spends
// the model. Idempotent; a conditioned model's Close does nothing.
func (d *Dense) Close() error {
	if d.spent == nil {
		d.m.Release()
		d.spent = errDenseClosed
	}
	return nil
}
