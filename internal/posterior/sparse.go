package posterior

import (
	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/sparse"
)

// Sparse adapts the truncated sparse model to the Model interface. Its
// fallible methods never fail; the truncation error is tracked by the
// wrapped model's Pruned bound, not the error path.
type Sparse struct {
	m *sparse.Model
}

// FromSparse wraps an existing sparse model.
func FromSparse(m *sparse.Model) *Sparse { return &Sparse{m: m} }

// N returns the cohort size.
func (s *Sparse) N() int { return s.m.N() }

// Kind returns KindSparse.
func (s *Sparse) Kind() Kind { return KindSparse }

// Risks returns the prior risk vector (a copy).
func (s *Sparse) Risks() []float64 { return s.m.Risks() }

// Response returns the assay model.
func (s *Sparse) Response() dilution.Response { return s.m.Response() }

// Tests returns how many outcomes have been absorbed.
func (s *Sparse) Tests() int { return s.m.Tests() }

// Update folds one pooled-test outcome into the posterior.
func (s *Sparse) Update(pool bitvec.Mask, y dilution.Outcome) error {
	return s.m.Update(pool, y)
}

// Marginals returns each subject's posterior infection probability.
func (s *Sparse) Marginals() ([]float64, error) { return s.m.Marginals(), nil }

// NegMasses scores every candidate pool.
func (s *Sparse) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	return s.m.NegMasses(cands), nil
}

// PrefixNegMasses returns the nested-prefix clean masses.
func (s *Sparse) PrefixNegMasses(order []int) ([]float64, error) {
	return s.m.PrefixNegMasses(order), nil
}

// Entropy returns the posterior entropy in bits over the retained support.
func (s *Sparse) Entropy() (float64, error) { return s.m.Entropy(), nil }

// Summary returns the marginals and the entropy over the retained support.
func (s *Sparse) Summary() (*Summary, error) { return summarize(s) }

// Condition collapses subject onto a known status; see Model.Condition.
func (s *Sparse) Condition(subject int, positive bool) (Model, error) {
	out := s.m.Condition(subject, positive)
	if out == nil {
		return nil, nil
	}
	return FromSparse(out), nil
}

// Snapshot captures the retained support and its truncation accounting.
func (s *Sparse) Snapshot() (*Snapshot, error) {
	return &Snapshot{
		Kind:     KindSparse,
		Risks:    s.m.Risks(),
		Response: s.m.Response(),
		Tests:    s.m.Tests(),
		States:   s.m.SupportStates(),
		Mass:     s.m.SupportMass(),
		Eps:      s.m.Eps(),
		Pruned:   s.m.Pruned(),
	}, nil
}

// Close is a no-op: the sparse model holds no external resources.
func (s *Sparse) Close() error { return nil }
