package sbgt

import (
	"repro/internal/halving"
	"repro/internal/sparse"
)

// SparseModel is a truncated lattice posterior: only states above a
// relative mass threshold are retained, with the discarded mass tracked as
// an explicit error bound (Pruned). It scales Bayesian group testing past
// the dense engine's 30-subject limit — up to 64 subjects at realistic
// prevalence — on a single machine.
type SparseModel = sparse.Model

// SparseConfig configures a truncated model; see sparse.Config.
type SparseConfig = sparse.Config

// NewSparseModel enumerates the prior support above the truncation
// threshold (branch-and-bound, without touching the full 2^N lattice) and
// returns the model.
func NewSparseModel(cfg SparseConfig) (*SparseModel, error) {
	return sparse.New(cfg)
}

// SelectPoolSparse runs one Bayesian halving selection on a truncated
// posterior. The error mirrors halving.SelectOn's contract; the sparse
// backend itself never fails, so the error is always nil today.
func SelectPoolSparse(m *SparseModel, maxPool int, localSearch bool) (Selection, error) {
	return halving.SelectOn(sparseAdapter{m}, halving.Options{MaxPool: maxPool, LocalSearch: localSearch})
}

// sparseAdapter lifts the infallible sparse model onto the fallible
// halving.Posterior surface.
type sparseAdapter struct{ m *SparseModel }

func (a sparseAdapter) N() int                        { return a.m.N() }
func (a sparseAdapter) Marginals() ([]float64, error) { return a.m.Marginals(), nil }
func (a sparseAdapter) NegMasses(cands []SubjectSet) ([]float64, error) {
	return a.m.NegMasses(cands), nil
}
func (a sparseAdapter) PrefixNegMasses(order []int) ([]float64, error) {
	return a.m.PrefixNegMasses(order), nil
}
