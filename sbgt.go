package sbgt

import (
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/posterior"
)

// SubjectSet identifies a set of subjects (bit i = subject i). Pools,
// truths, and classification sets all use this representation.
type SubjectSet = bitvec.Mask

// Subjects builds a SubjectSet from indices.
func Subjects(idx ...int) SubjectSet { return bitvec.FromIndices(idx...) }

// AllSubjects returns the full cohort of size n.
func AllSubjects(n int) SubjectSet { return bitvec.Full(n) }

// Outcome is a pooled-test result (binary or continuous Ct).
type Outcome = dilution.Outcome

// Positive and Negative are the canonical binary outcomes.
var (
	Positive = dilution.Positive
	Negative = dilution.Negative
)

// Response models the conditional distribution of a pooled test outcome
// given how many infected specimens the pool contains.
type Response = dilution.Response

// Status is a subject's classification state.
type Status = core.Status

// Classification states.
const (
	StatusUnknown  = core.StatusUnknown
	StatusNegative = core.StatusNegative
	StatusPositive = core.StatusPositive
)

// Classification records one subject's final call.
type Classification = core.Classification

// TestRecord logs one physical pooled test.
type TestRecord = core.TestRecord

// TestFunc runs one physical pooled test.
type TestFunc = core.TestFunc

// Config configures a surveillance session; see core.Config for field
// semantics. The zero value of every optional field selects a sensible
// default (halving strategy, 0.99/0.01 thresholds, 64 stages).
type Config = core.Config

// Result summarizes a completed surveillance run.
type Result = core.Result

// Strategy selects the next pool(s) to test.
type Strategy = halving.Strategy

// Selection describes one pool chosen by the halving algorithm.
type Selection = halving.Selection

// Engine owns the worker pool lattice kernels run on. Create one per
// process (or one per isolation domain) and Close it when done.
type Engine struct {
	pool *engine.Pool
}

// NewEngine creates an engine with the given number of workers
// (<= 0 selects GOMAXPROCS).
func NewEngine(workers int) *Engine {
	return &Engine{pool: engine.NewPool(workers)}
}

// Workers reports the engine's parallel width.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Close releases the engine's workers. Sessions created from the engine
// keep working (kernels fall back to inline execution) but lose
// parallelism; close the engine only after the sessions are done.
func (e *Engine) Close() { e.pool.Close() }

// Session is one cohort's classification campaign.
type Session = core.Session

// NewSession builds the prior lattice for the configured cohort.
func (e *Engine) NewSession(cfg Config) (*Session, error) {
	return core.NewSession(e.pool, cfg)
}

// HalvingStrategy returns the Bayesian Halving Algorithm as a session
// strategy. maxPool caps pool size (0 = unbounded); localSearch enables
// the swap-refinement pass.
func HalvingStrategy(maxPool int, localSearch bool) Strategy {
	return halving.Halving{Opts: halving.Options{MaxPool: maxPool, LocalSearch: localSearch}}
}

// IndividualStrategy tests one subject at a time (the no-pooling baseline).
func IndividualStrategy() Strategy { return halving.Individual{} }

// DorfmanStrategy cycles fixed blocks of the given size (the classic
// non-adaptive design).
func DorfmanStrategy(blockSize int) Strategy { return &halving.Dorfman{BlockSize: blockSize} }

// SelectPool runs one Bayesian halving selection on a posterior from
// OpenBackend (any backend). maxPool caps pool size (0 = unbounded);
// localSearch enables the swap-refinement pass. A non-nil error is a
// failed posterior read — a lost cluster executor — not a poor split.
func SelectPool(m Posterior, maxPool int, localSearch bool) (Selection, error) {
	return halving.SelectOn(m, halving.Options{MaxPool: maxPool, LocalSearch: localSearch})
}

// SelectPools runs the depth-pool look-ahead rule on a posterior from
// OpenBackend (any backend): the pools to run in one stage, before any of
// their outcomes is known. Each read weighs the posterior over the outcome
// branches of the pools already chosen, in one pass with no copy of it;
// depth is at most 8 (2^(depth−1) branches). A non-nil error is a failed
// posterior read or a depth above that bound.
func SelectPools(m Posterior, depth, maxPool int) ([]Selection, error) {
	return halving.SelectLookahead(posterior.Branches(m), depth, halving.Options{MaxPool: maxPool})
}
