// Package stats runs and summarizes Monte-Carlo surveillance studies —
// SBGT's third computational kernel ("conducting statistical analyses").
//
// A study repeats the full classify-a-cohort campaign over many simulated
// populations and aggregates operating characteristics: classification
// accuracy/sensitivity/specificity against the simulated truth, tests per
// subject (the group-testing savings), and sequential stages (the lab
// round-trip cost). Replicates are deterministic: the root seed is split
// into one independent RNG stream per replicate before any work starts, so
// the parallel runner and the serial runner produce identical results.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Confusion tallies per-subject classification outcomes against truth.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add merges another confusion tally into c.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Total returns the number of classified subjects.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/Total, or 1 for an empty tally.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 1
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Sensitivity returns TP/(TP+FN), or 1 when there were no true positives
// to find (the vacuous case).
func (c Confusion) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Specificity returns TN/(TN+FP), or 1 when there were no true negatives.
func (c Confusion) Specificity() float64 {
	if c.TN+c.FP == 0 {
		return 1
	}
	return float64(c.TN) / float64(c.TN+c.FP)
}

// Evaluate scores a completed session result against the simulated truth.
func Evaluate(res *core.Result, truth bitvec.Mask) Confusion {
	var c Confusion
	for _, call := range res.Classifications {
		infected := truth.Has(call.Subject)
		positive := call.Status == core.StatusPositive
		switch {
		case infected && positive:
			c.TP++
		case infected && !positive:
			c.FN++
		case !infected && positive:
			c.FP++
		default:
			c.TN++
		}
	}
	return c
}

// StudyConfig describes one Monte-Carlo study.
type StudyConfig struct {
	// RiskGen produces the cohort's prior risks for one replicate. The
	// stream is the replicate's own; generators may draw heterogeneous
	// risks from it. Required.
	RiskGen func(r *rng.Source) []float64
	// Response models the assay (used for both simulation and inference).
	Response dilution.Response
	// Strategy builds a (possibly stateful) selection strategy per
	// replicate; nil selects Bayesian halving with MaxPool 32.
	Strategy func(r *rng.Source) halving.Strategy
	// Backend selects the posterior representation each replicate runs on
	// (dense, sparse, or cluster with local executors). The zero value is
	// the dense in-process backend, the historical behavior.
	Backend posterior.Spec
	// Lookahead, PosThreshold, NegThreshold, MaxStages mirror core.Config.
	Lookahead    int
	PosThreshold float64
	NegThreshold float64
	MaxStages    int
	// Replicates is the number of simulated cohorts. Required > 0.
	Replicates int
	// Seed roots the deterministic replicate streams.
	Seed uint64
	// Obs, when non-nil, instruments every replicate's session and
	// backend into the shared registry: per-stage session phase
	// timings, posterior per-op latency, and (for the cluster backend)
	// RPC and executor series. The registry is concurrency-safe, so the
	// parallel runner's replicates all report into it.
	Obs *obs.Registry
}

// Replicate holds one simulated campaign's metrics.
type Replicate struct {
	Confusion
	Subjects  int
	Infected  int
	Tests     int
	Stages    int
	Converged bool
}

// StudyResult aggregates a finished study.
type StudyResult struct {
	Reps []Replicate
}

// Run executes the study with one replicate per pool job — replicates are
// the unit of parallelism, each on its own single-worker lattice so the
// two levels of parallelism do not fight. Results are identical to
// RunSerial for the same config.
func Run(pool *engine.Pool, cfg StudyConfig) (*StudyResult, error) {
	streams, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	reps := make([]Replicate, cfg.Replicates)
	var mu sync.Mutex
	var firstErr error
	pool.Run(cfg.Replicates, func(i int) {
		rep, err := runOne(cfg, streams[i])
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("replicate %d: %w", i, err)
			}
			mu.Unlock()
			return
		}
		reps[i] = rep
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return &StudyResult{Reps: reps}, nil
}

// RunSerial executes the study on the calling goroutine — the pre-SBGT
// analysis path the T3 experiment benchmarks against.
func RunSerial(cfg StudyConfig) (*StudyResult, error) {
	streams, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	reps := make([]Replicate, cfg.Replicates)
	for i := range reps {
		rep, err := runOne(cfg, streams[i])
		if err != nil {
			return nil, fmt.Errorf("replicate %d: %w", i, err)
		}
		reps[i] = rep
	}
	return &StudyResult{Reps: reps}, nil
}

func prepare(cfg StudyConfig) ([]*rng.Source, error) {
	if cfg.RiskGen == nil {
		return nil, fmt.Errorf("stats: nil RiskGen")
	}
	if cfg.Response == nil {
		return nil, fmt.Errorf("stats: nil Response")
	}
	if cfg.Replicates <= 0 {
		return nil, fmt.Errorf("stats: Replicates = %d", cfg.Replicates)
	}
	return rng.New(cfg.Seed).SplitN(cfg.Replicates), nil
}

// openSession builds one replicate's session on the study's backend.
// The session owns the opened model and closes it when the campaign
// completes or the caller abandons it. entropyTrace is
// core.Config.EntropyTrace: only the convergence figure asks for it.
func openSession(cfg StudyConfig, lp *engine.Pool, risks []float64, strat halving.Strategy, entropyTrace bool) (*core.Session, error) {
	spec := cfg.Backend
	if spec.Obs == nil {
		spec.Obs = cfg.Obs
	}
	model, err := spec.Open(lp, risks, cfg.Response)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSessionOn(model, core.Config{
		Risks:        risks,
		Response:     cfg.Response,
		Strategy:     strat,
		Lookahead:    cfg.Lookahead,
		PosThreshold: cfg.PosThreshold,
		NegThreshold: cfg.NegThreshold,
		MaxStages:    cfg.MaxStages,
		Obs:          cfg.Obs,
		EntropyTrace: entropyTrace,
	})
	if err != nil {
		model.Close() //lint:allow errcheck teardown on a constructor failure path; the construction error wins
		return nil, err
	}
	return sess, nil
}

// runOne simulates one cohort end to end on a private single-worker engine.
func runOne(cfg StudyConfig, r *rng.Source) (Replicate, error) {
	risks := cfg.RiskGen(r)
	popu := workload.Draw(risks, r)
	oracle := workload.NewOracle(popu, cfg.Response, r)
	var strat halving.Strategy
	if cfg.Strategy != nil {
		strat = cfg.Strategy(r)
	}
	lp := engine.NewPool(1)
	defer lp.Close()
	sess, err := openSession(cfg, lp, risks, strat, false)
	if err != nil {
		return Replicate{}, err
	}
	defer sess.Close()
	res, err := sess.Run(oracle.Test)
	if err != nil {
		return Replicate{}, err
	}
	return Replicate{
		Confusion: Evaluate(res, popu.Truth),
		Subjects:  len(risks),
		Infected:  popu.Infected(),
		Tests:     res.Tests,
		Stages:    res.Stages,
		Converged: res.Converged,
	}, nil
}

// Summary holds the study-level aggregates the experiment tables report.
type Summary struct {
	Replicates      int
	Subjects        int // total subjects across replicates
	Accuracy        float64
	AccuracyCI      prob.Interval // 95% Wilson
	Sensitivity     float64
	Specificity     float64
	MeanTests       float64 // per replicate
	TestsPerSubject float64
	MeanStages      float64
	StagesP90       float64
	ConvergedFrac   float64
}

// Summarize aggregates the study.
func (s *StudyResult) Summarize() Summary {
	var total Confusion
	var tests, stages, subjects, converged int
	stageVals := make([]float64, 0, len(s.Reps))
	for _, rep := range s.Reps {
		total.Add(rep.Confusion)
		tests += rep.Tests
		stages += rep.Stages
		subjects += rep.Subjects
		stageVals = append(stageVals, float64(rep.Stages))
		if rep.Converged {
			converged++
		}
	}
	n := len(s.Reps)
	if n == 0 {
		return Summary{}
	}
	sort.Float64s(stageVals)
	sum := Summary{
		Replicates:    n,
		Subjects:      subjects,
		Accuracy:      total.Accuracy(),
		AccuracyCI:    prob.WilsonInterval(total.TP+total.TN, total.Total(), 1.96),
		Sensitivity:   total.Sensitivity(),
		Specificity:   total.Specificity(),
		MeanTests:     float64(tests) / float64(n),
		MeanStages:    float64(stages) / float64(n),
		StagesP90:     prob.Quantile(stageVals, 0.9),
		ConvergedFrac: float64(converged) / float64(n),
	}
	if subjects > 0 {
		sum.TestsPerSubject = float64(tests) / float64(subjects)
	}
	return sum
}

// String renders the summary as one table row body.
func (s Summary) String() string {
	return fmt.Sprintf("acc=%.4f [%.4f,%.4f] sens=%.4f spec=%.4f tests/subj=%.3f stages=%.2f (p90 %.0f) conv=%.0f%%",
		s.Accuracy, s.AccuracyCI.Lo, s.AccuracyCI.Hi, s.Sensitivity, s.Specificity,
		s.TestsPerSubject, s.MeanStages, s.StagesP90, 100*s.ConvergedFrac)
}

// IndividualTestingBaseline returns the per-subject test count individual
// testing would need for the same cohorts (always 1.0) scaled to the
// study's subject total, plus the implied number of tests — the yardstick
// for the savings column. With a noisy assay, confirmatory repetition
// would push individual testing above 1; we report the optimistic 1.0.
func (s *StudyResult) IndividualTestingBaseline() (tests int) {
	for _, rep := range s.Reps {
		tests += rep.Subjects
	}
	return tests
}

// Savings returns 1 − (pooled tests / individual tests): the fraction of
// tests group testing avoided.
func (s *StudyResult) Savings() float64 {
	ind := s.IndividualTestingBaseline()
	if ind == 0 {
		return 0
	}
	var pooled int
	for _, rep := range s.Reps {
		pooled += rep.Tests
	}
	return 1 - float64(pooled)/float64(ind)
}

// MeanEntropyTrace is a helper for the convergence figure: it runs
// replicates capturing per-stage entropy and returns the mean trace padded
// with zeros after convergence (a converged lattice has zero entropy).
func MeanEntropyTrace(cfg StudyConfig, stages int) ([]float64, error) {
	streams, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	trace := make([]float64, stages+1)
	for _, r := range streams {
		risks := cfg.RiskGen(r)
		popu := workload.Draw(risks, r)
		oracle := workload.NewOracle(popu, cfg.Response, r)
		var strat halving.Strategy
		if cfg.Strategy != nil {
			strat = cfg.Strategy(r)
		}
		lp := engine.NewPool(1)
		sess, err := openSession(cfg, lp, risks, strat, true)
		if err != nil {
			lp.Close()
			return nil, err
		}
		res, err := sess.Run(oracle.Test)
		sess.Close() //lint:allow errcheck abandoned-session teardown; Run's error wins
		lp.Close()
		if err != nil {
			return nil, err
		}
		for i := 0; i <= stages; i++ {
			if i < len(res.EntropyTrace) {
				trace[i] += res.EntropyTrace[i]
			}
			// else: converged — contributes zero entropy.
		}
	}
	inv := 1 / float64(len(streams))
	for i := range trace {
		trace[i] *= inv
	}
	// Guard: means must be finite.
	for _, v := range trace {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: non-finite entropy trace")
		}
	}
	return trace, nil
}
