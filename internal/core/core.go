// Package core orchestrates the SBGT surveillance loop: build the
// posterior prior, select pools (Bayesian halving or a comparison
// strategy), run the physical tests, fold outcomes into the posterior,
// classify subjects whose marginals cross the decision thresholds, and
// collapse classified subjects out of the model so the state space
// shrinks as certainty accumulates.
//
// A Session owns one cohort's classification campaign and is generic
// over the posterior representation (posterior.Model): the same loop
// runs on the dense in-process lattice, the truncated sparse support,
// and the distributed cluster driver. Subjects are identified by their
// *global* index in the original cohort throughout; internally the
// session maintains the mapping onto the shrinking model.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/posterior"
)

// Status is a subject's classification state.
type Status int8

// Classification states.
const (
	StatusUnknown  Status = iota // still in the lattice
	StatusNegative               // classified not infected
	StatusPositive               // classified infected
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNegative:
		return "negative"
	case StatusPositive:
		return "positive"
	default:
		return "unknown"
	}
}

// Classification records one subject's final call.
type Classification struct {
	Subject  int // global subject index
	Status   Status
	Marginal float64 // posterior infection probability at decision time
	Stage    int     // stage at which the call was made (1-based; 0 = never)
	Forced   bool    // true when called at termination without crossing a threshold
}

// TestRecord logs one physical pooled test.
type TestRecord struct {
	Stage   int
	Pool    bitvec.Mask // global subject indices
	Outcome dilution.Outcome
}

// TestFunc runs one physical pooled test on the given subjects (global
// indices) and returns the outcome — in production a LIMS call, in the
// experiments a workload.Oracle.
type TestFunc func(pool bitvec.Mask) dilution.Outcome

// Pool is one proposed physical test: the session asks the caller to run
// a pooled assay over the given subjects and report the outcome back via
// AbsorbResults. (Stage, Index) is the proposal's identity — results are
// matched against it, so a late or duplicated lab report can never be
// absorbed twice or against the wrong stage.
type Pool struct {
	Stage int         // 1-based stage this proposal belongs to
	Index int         // position within the stage's proposal
	Pool  bitvec.Mask // global subject indices to pool
}

// TestResult reports one completed physical test back to the session.
// Stage and Index must match a pool returned by ProposePools. Elapsed,
// when set, is the wall time of the physical test and is folded into the
// stage's StageTiming.Test (the session cannot time an out-of-band lab
// round-trip itself).
type TestResult struct {
	Stage   int
	Index   int
	Outcome dilution.Outcome
	Elapsed time.Duration
}

// ErrNoProposal is returned by AbsorbResults when the session has no
// outstanding pool proposal — results were already absorbed (a duplicate
// lab report) or ProposePools was never called.
var ErrNoProposal = errors.New("core: no outstanding pool proposal")

// Config configures a surveillance session.
type Config struct {
	// Risks holds per-subject prior infection probabilities (length = cohort
	// size, each in (0,1)). Required for NewSession; NewSessionOn fills it
	// from the model when nil.
	Risks []float64
	// Response models the pooled assay. Required for NewSession;
	// NewSessionOn fills it from the model when nil.
	Response dilution.Response
	// Strategy selects pools; nil defaults to the Bayesian Halving
	// Algorithm with MaxPool 32.
	Strategy halving.Strategy
	// Lookahead > 1 selects that many pools per stage with the halving
	// look-ahead rule (fewer lab round-trips, slightly more tests), on any
	// backend. Requires the strategy to be halving (or nil); at most
	// MaxLookahead.
	Lookahead int
	// PosThreshold classifies a subject positive when its marginal reaches
	// it; 0 defaults to 0.99.
	PosThreshold float64
	// NegThreshold classifies a subject negative when its marginal falls to
	// it; 0 defaults to 0.01.
	NegThreshold float64
	// MaxStages caps the sequential stages before remaining subjects are
	// force-classified at the posterior mode; 0 defaults to 64.
	MaxStages int
	// EntropyTrace makes the session record the posterior entropy of the
	// prior and of every settled stage (Result.EntropyTrace). Off by
	// default: no decision reads the entropy, and it is the costliest pass
	// over the lattice (a logarithm per state), so only a caller that wants
	// the convergence curve pays for it. A checkpoint carries the setting.
	EntropyTrace bool
	// Obs, when non-nil, receives session metrics
	// (sbgt_session_stage_seconds{phase}) and wraps the posterior with
	// posterior.Instrument so backend ops report too.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per stage with select / test /
	// update / classify children.
	Tracer *obs.Tracer
}

// MaxLookahead is the deepest look-ahead a session accepts. The last of k
// pools is chosen over the 2^(k−1) outcome branches of the others, so every
// posterior state does 2^(k−1) branch factors' work per read, and the depth
// reaches withDefaults from outside the program (the serve API's create
// request, a checkpoint header); experiment F5 sweeps 1, 2 and 4.
const MaxLookahead = lattice.MaxBranchPools + 1

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if len(out.Risks) == 0 {
		return out, fmt.Errorf("core: empty cohort")
	}
	if out.Response == nil {
		return out, fmt.Errorf("core: nil response model")
	}
	if out.Strategy == nil {
		out.Strategy = halving.Halving{Opts: halving.Options{MaxPool: 32}}
	}
	if out.Lookahead < 1 {
		out.Lookahead = 1
	}
	if out.Lookahead > MaxLookahead {
		return out, fmt.Errorf("core: lookahead %d above the limit of %d", out.Lookahead, MaxLookahead)
	}
	if out.Lookahead > 1 {
		if _, ok := out.Strategy.(halving.Halving); !ok {
			return out, fmt.Errorf("core: lookahead requires the halving strategy, have %s", out.Strategy.Name())
		}
	}
	if out.PosThreshold == 0 { //lint:allow floats the zero value marks the field unset
		out.PosThreshold = 0.99
	}
	if out.NegThreshold == 0 { //lint:allow floats the zero value marks the field unset
		out.NegThreshold = 0.01
	}
	if !(out.NegThreshold > 0 && out.NegThreshold < out.PosThreshold && out.PosThreshold < 1) {
		return out, fmt.Errorf("core: thresholds neg=%v pos=%v invalid", out.NegThreshold, out.PosThreshold)
	}
	if out.MaxStages == 0 {
		out.MaxStages = 64
	}
	if out.MaxStages < 0 {
		return out, fmt.Errorf("core: MaxStages %d negative", out.MaxStages)
	}
	return out, nil
}

// configFor validates cfg for a session over model — fresh or restored.
// Risks and Response default to the model's own when nil; when set, they
// must agree with the model.
func configFor(model posterior.Model, cfg Config) (Config, error) {
	if cfg.Risks == nil {
		cfg.Risks = model.Risks()
	} else if len(cfg.Risks) != model.N() {
		return cfg, fmt.Errorf("core: config lists %d risks, model holds %d subjects", len(cfg.Risks), model.N())
	}
	if cfg.Response == nil {
		cfg.Response = model.Response()
	}
	return cfg.withDefaults()
}

// traceCarrier is the optional backend capability for distributed
// tracing: a model that can accept a propagated trace context (the
// cluster driver) emits its RPC spans under the session's live phase
// span, so one assembled trace spans session, driver, and executors.
type traceCarrier interface {
	SetTraceContext(obs.TraceContext)
}

// carrierOf probes the backend under any instrumentation decorators for
// the trace-carrier capability.
func carrierOf(m posterior.Model) traceCarrier {
	if m == nil {
		return nil
	}
	if c, ok := posterior.Base(m).(traceCarrier); ok {
		return c
	}
	return nil
}

// StageTiming is the wall-time breakdown of one session stage by phase.
type StageTiming struct {
	Stage    int           `json:"stage"`
	Select   time.Duration `json:"select_ns"`
	Test     time.Duration `json:"test_ns"`
	Update   time.Duration `json:"update_ns"`
	Classify time.Duration `json:"classify_ns"`
}

// stagePhases holds the per-phase latency histograms. The fields are
// detached (but functional) histograms when no registry was configured,
// so the stage loop times unconditionally.
type stagePhases struct {
	sel, test, update, classify *obs.Histogram
}

func newStagePhases(reg *obs.Registry) stagePhases {
	hist := func(phase string) *obs.Histogram {
		return reg.Histogram("sbgt_session_stage_seconds", nil, obs.L("phase", phase))
	}
	return stagePhases{
		sel:      hist("select"),
		test:     hist("test"),
		update:   hist("update"),
		classify: hist("classify"),
	}
}

// pending is an outstanding ProposePools proposal: the stage span stays
// open across the lab round-trip and the selected pools wait for their
// results.
type pending struct {
	span   *obs.Span
	timing StageTiming
	local  []bitvec.Mask // model-position masks, proposal order
	global []bitvec.Mask // the same pools in global subject indices
}

// proposals renders the pending pools in the public Pool form.
func (p *pending) proposals() []Pool {
	out := make([]Pool, len(p.global))
	for i, g := range p.global {
		out[i] = Pool{Stage: p.timing.Stage, Index: i, Pool: g}
	}
	return out
}

// Session is one cohort's classification campaign, driven either
// synchronously (Step/Run call the test function inline) or as a
// resumable state machine (ProposePools hands pools out, AbsorbResults
// folds the lab's answers back in — the shape a long-lived service with
// out-of-band lab round-trips needs).
//
// A Session is not safe for general concurrent use — drive each campaign
// from one goroutine at a time; the parallelism lives inside the
// posterior kernels. The exception is Close: it may be called from
// another goroutine (an eviction or drain path) concurrently with a
// failed Step/AbsorbResults and with other Close calls, and is
// idempotent.
type Session struct {
	mu      sync.Mutex // guards every field below; held across model kernels
	cfg     Config
	model   posterior.Model // nil once every subject is classified (or Close'd)
	active  []int           // model position -> global subject index
	marg    []float64       // marginals of the current posterior, by model position; nil when not held
	calls   []Classification
	stage   int
	tests   int
	entropy []float64 // posterior entropy after each stage (bits)
	log     []TestRecord
	pend    *pending // outstanding proposal awaiting results, if any
	phases  stagePhases
	root    *obs.Span    // session-lifetime span; stage spans are its children
	req     *obs.Span    // the serving request's span, when one is driving the session
	carrier traceCarrier // non-nil when the backend accepts trace contexts
	timings []StageTiming
}

// NewSession builds the prior over the whole cohort on the dense
// in-process backend — the historical constructor, unchanged for
// existing callers. Use NewSessionOn to run a campaign on any backend.
func NewSession(pool *engine.Pool, cfg Config) (*Session, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	model, err := posterior.Spec{}.Open(pool, full.Risks, full.Response)
	if err != nil {
		return nil, err
	}
	return NewSessionOn(model, cfg)
}

// NewSessionOn builds a session that drives the given posterior model —
// dense, sparse, or cluster. The session takes ownership of the model:
// it is Closed when the campaign completes (or when the session is
// Close'd early). cfg.Risks and cfg.Response default to the model's own
// when nil; when set, they must agree with the model.
func NewSessionOn(model posterior.Model, cfg Config) (*Session, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil posterior model")
	}
	full, err := configFor(model, cfg)
	if err != nil {
		return nil, err
	}
	model = posterior.Instrument(model, full.Obs)
	n := len(full.Risks)
	s := &Session{
		cfg:     full,
		model:   model,
		active:  make([]int, n),
		calls:   make([]Classification, n),
		phases:  newStagePhases(full.Obs),
		root:    full.Tracer.Start("session", obs.A("subjects", n)),
		carrier: carrierOf(model),
	}
	// Install the session context before the opening digest below, so even
	// pre-stage RPCs land in the trace. (A fresh dense or cluster model
	// answers it from its risks, without reading the lattice.)
	s.setCarrierContext(s.root.Context())
	for i := range s.active {
		s.active[i] = i
		s.calls[i] = Classification{Subject: i, Status: StatusUnknown, Marginal: full.Risks[i]}
	}
	sum, err := model.Summary()
	if err != nil {
		return nil, fmt.Errorf("core: prior summary: %w", err)
	}
	s.marg = sum.Marginals
	if full.EntropyTrace {
		s.entropy = append(s.entropy, sum.EntropyBits)
	}
	return s, nil
}

// Done reports whether every subject is classified.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model == nil
}

// Stage returns the number of started stages (a stage counts as soon as
// its pools are proposed).
func (s *Session) Stage() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stage
}

// Tests returns the number of physical tests absorbed so far.
func (s *Session) Tests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tests
}

// Model exposes the live posterior (nil once the session is done).
// Callers must not mutate it behind the session's back.
func (s *Session) Model() posterior.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// Remaining returns the number of unclassified subjects.
func (s *Session) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remainingLocked()
}

func (s *Session) remainingLocked() int {
	if s.model == nil {
		return 0
	}
	return s.model.N()
}

// Close releases the posterior of a session that is being abandoned
// mid-campaign (the backend may hold connections or local executors).
// The session reads as Done afterwards. Idempotent, and safe to call
// concurrently with another Close or after a failed Step/AbsorbResults —
// the eviction and drain paths of a session manager Close from their own
// goroutines.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Session) closeLocked() error {
	if s.pend != nil {
		s.pend.span.End() // an abandoned proposal's stage span ends with the session
		s.pend = nil
	}
	s.root.End() // idempotent; records the session span on first close
	if s.model == nil {
		return nil
	}
	err := s.model.Close()
	s.model = nil
	return err
}

// setCarrierContext points the backend's RPC spans at a new parent, when
// the backend carries trace contexts at all.
func (s *Session) setCarrierContext(tc obs.TraceContext) {
	if s.carrier != nil {
		s.carrier.SetTraceContext(tc)
	}
}

// SetRequestSpan hangs the phase spans of the session's next calls
// (select, update, classify) under a serving request's span instead of
// the stage span, so a served request's tree holds the work it caused;
// nil restores the stage span. A session manager sets it under the lock
// that serializes the cohort, around each request.
func (s *Session) SetRequestSpan(span *obs.Span) {
	s.mu.Lock()
	s.req = span
	s.mu.Unlock()
}

// phase opens a phase span under the serving request, or under the stage
// span when no request is driving the session.
func (s *Session) phase(stage *obs.Span, name string) *obs.Span {
	if s.req != nil {
		return s.req.Child(name)
	}
	return stage.Child(name)
}

// Classifications returns the per-subject calls made so far (global order).
// Unclassified subjects have StatusUnknown and their marginal as of the
// last completed stage.
func (s *Session) Classifications() []Classification {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.classificationsLocked()
}

func (s *Session) classificationsLocked() []Classification {
	out := make([]Classification, len(s.calls))
	copy(out, s.calls)
	if s.model != nil && s.marg != nil {
		for pos, g := range s.active {
			out[g].Marginal = s.marg[pos]
		}
	}
	return out
}

// marginals returns the marginals of the current posterior. The session
// holds them from its last read (the opening digest, a restore, or the
// classify pass that closed the previous stage) until an Update or a
// Condition changes the posterior, so the model is swept only when that
// cache is empty.
func (s *Session) marginals() ([]float64, error) {
	if s.marg == nil {
		marg, err := s.model.Marginals()
		if err != nil {
			return nil, err
		}
		s.marg = marg
	}
	return s.marg, nil
}

// globalMask maps a model-position mask to global subject indices.
func (s *Session) globalMask(m bitvec.Mask) bitvec.Mask {
	var out bitvec.Mask
	for _, pos := range m.Indices() {
		out = out.With(s.active[pos])
	}
	return out
}

// ProposePools starts the next stage: it runs the selection strategy and
// returns the pools the caller must run through the physical assay,
// leaving the session waiting for AbsorbResults. While a proposal is
// outstanding, ProposePools is idempotent — it returns the same pools
// again without re-selecting, so a client that lost the response can
// simply re-ask. It returns (nil, nil) once the session is done.
func (s *Session) ProposePools() ([]Pool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proposeLocked()
}

func (s *Session) proposeLocked() ([]Pool, error) {
	if s.model == nil {
		return nil, nil
	}
	if s.pend != nil {
		return s.pend.proposals(), nil
	}
	span := s.root.Child("stage", obs.A("stage", s.stage+1))
	timing := StageTiming{Stage: s.stage + 1}
	// A failed selection mirrors the historical Step error path: the stage
	// span ends, the carrier falls back to the session root, and the
	// timing row is recorded with the phases measured so far.
	fail := func(err error) ([]Pool, error) {
		s.timings = append(s.timings, timing)
		s.setCarrierContext(s.root.Context())
		span.End()
		return nil, err
	}

	sel := s.phase(span, "select")
	s.setCarrierContext(sel.Context())
	var pools []bitvec.Mask
	var err error
	if s.cfg.Lookahead > 1 {
		pools, err = s.lookaheadPools()
	} else {
		// The strategy reads the marginals the session holds, not the lattice.
		var p bitvec.Mask
		var marg []float64
		if marg, err = s.marginals(); err == nil {
			p, err = s.cfg.Strategy.Next(heldModel{s.model, marg})
		}
		pools = []bitvec.Mask{p}
	}
	if err != nil {
		sel.End()
		return fail(fmt.Errorf("core: strategy %s: %w", s.cfg.Strategy.Name(), err))
	}
	timing.Select = sel.End()
	s.phases.sel.Observe(timing.Select.Seconds())

	s.stage++
	timing.Stage = s.stage
	pend := &pending{span: span, timing: timing}
	for _, p := range pools {
		if p == 0 {
			return fail(fmt.Errorf("core: strategy %s selected an empty pool", s.cfg.Strategy.Name()))
		}
		pend.local = append(pend.local, p)
		pend.global = append(pend.global, s.globalMask(p))
	}
	s.pend = pend
	return pend.proposals(), nil
}

// lookaheadPools selects the stage's Lookahead pools (model-position
// masks) with the halving look-ahead rule. Like the strategy, it reads the
// marginals the session holds, not the lattice.
func (s *Session) lookaheadPools() ([]bitvec.Mask, error) {
	h := s.cfg.Strategy.(halving.Halving) // configFor checked this
	marg, err := s.marginals()
	if err != nil {
		return nil, err
	}
	sels, err := halving.SelectLookahead(posterior.Branches(heldModel{s.model, marg}), s.cfg.Lookahead, h.Opts)
	if err != nil {
		return nil, err
	}
	pools := make([]bitvec.Mask, len(sels))
	for i, se := range sels {
		pools[i] = se.Pool
	}
	return pools, nil
}

// heldModel answers Marginals from the vector the session holds and
// everything else from the model, which Base still finds beneath it.
type heldModel struct {
	posterior.Model
	marg []float64
}

func (h heldModel) Marginals() ([]float64, error) { return slices.Clone(h.marg), nil }
func (h heldModel) Unwrap() posterior.Model       { return h.Model }

// AbsorbResults folds the outcomes of the currently proposed pools into
// the posterior and classifies every subject whose marginal crossed a
// threshold, completing the stage ProposePools opened. Results may arrive
// in any order but must cover the proposal exactly: every (Stage, Index)
// once, no extras. A malformed batch is rejected without touching the
// posterior — the proposal stays outstanding, so the caller can resubmit.
// With no outstanding proposal it returns ErrNoProposal (a duplicate
// submission can never be absorbed twice); on a done session it returns
// nil, mirroring Step.
func (s *Session) AbsorbResults(results []TestResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.absorbLocked(results)
}

func (s *Session) absorbLocked(results []TestResult) error {
	if s.model == nil {
		return nil
	}
	if s.pend == nil {
		return ErrNoProposal
	}
	p := s.pend
	// Validate the batch against the proposal before mutating anything.
	if len(results) != len(p.local) {
		return fmt.Errorf("core: stage %d proposed %d pools, got %d results", s.stage, len(p.local), len(results))
	}
	ordered := make([]*TestResult, len(p.local))
	for i := range results {
		r := &results[i]
		if r.Stage != s.stage {
			return fmt.Errorf("core: result for stage %d, outstanding proposal is stage %d", r.Stage, s.stage)
		}
		if r.Index < 0 || r.Index >= len(ordered) {
			return fmt.Errorf("core: result index %d outside proposal of %d pools", r.Index, len(ordered))
		}
		if ordered[r.Index] != nil {
			return fmt.Errorf("core: duplicate result for stage %d pool %d", r.Stage, r.Index)
		}
		ordered[r.Index] = r
	}

	// The batch is valid: the proposal is consumed exactly once, and from
	// here the stage completes (or fails) the same way Step always has.
	s.pend = nil
	span := p.span
	timing := &p.timing
	defer span.End()
	// Each phase re-points the backend's RPC spans at its own child span;
	// after the stage they fall back to the session root, covering any
	// between-stage backend calls.
	defer s.setCarrierContext(s.root.Context())
	defer func() { s.timings = append(s.timings, *timing) }()

	// The updates change the posterior, so the held marginals go; classify
	// reads them afresh, and an error on the way leaves the cache empty.
	s.marg = nil
	for i, lp := range p.local {
		r := ordered[i]
		timing.Test += r.Elapsed
		s.tests++
		s.log = append(s.log, TestRecord{Stage: s.stage, Pool: p.global[i], Outcome: r.Outcome})
		us := s.phase(span, "update")
		s.setCarrierContext(us.Context())
		err := s.model.Update(lp, r.Outcome)
		us.Fail(err)
		timing.Update += us.End()
		if err != nil {
			return fmt.Errorf("core: stage %d: %w", s.stage, err)
		}
	}
	s.phases.test.Observe(timing.Test.Seconds())
	s.phases.update.Observe(timing.Update.Seconds())

	cs := s.phase(span, "classify")
	s.setCarrierContext(cs.Context())
	err := s.classify()
	if err == nil && s.model != nil && s.cfg.EntropyTrace {
		var ent float64
		if ent, err = s.model.Entropy(); err == nil {
			s.entropy = append(s.entropy, ent)
		}
	}
	cs.Fail(err)
	timing.Classify = cs.End()
	s.phases.classify.Observe(timing.Classify.Seconds())
	if err != nil {
		return fmt.Errorf("core: stage %d: %w", s.stage, err)
	}
	return nil
}

// Outstanding returns the currently proposed pools awaiting results, or
// nil when the session is idle (between stages) or done. Unlike
// ProposePools it never starts a new stage.
func (s *Session) Outstanding() []Pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pend == nil {
		return nil
	}
	return s.pend.proposals()
}

// stageTestSpan opens a "test" child span under the outstanding stage
// span (Step's inline measurement of the test function). It degrades to a
// root child when no proposal is outstanding — e.g. the session was
// closed concurrently.
func (s *Session) stageTestSpan() *obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pend != nil {
		return s.pend.span.Child("test")
	}
	return s.root.Child("test")
}

// Step runs one stage synchronously: select pools, run them through
// test, absorb the outcomes, and classify every subject whose marginal
// crossed a threshold. It is ProposePools + AbsorbResults with the lab
// round-trip inlined, and a no-op when the session is done.
func (s *Session) Step(test TestFunc) error {
	if s.Done() {
		return nil
	}
	if test == nil {
		return fmt.Errorf("core: nil test function")
	}
	pools, err := s.ProposePools()
	if err != nil || pools == nil {
		return err
	}
	results := make([]TestResult, 0, len(pools))
	for _, p := range pools {
		ts := s.stageTestSpan()
		y := test(p.Pool)
		results = append(results, TestResult{Stage: p.Stage, Index: p.Index, Outcome: y, Elapsed: ts.End()})
	}
	return s.AbsorbResults(results)
}

// StageTimings returns the per-stage phase breakdown recorded so far.
func (s *Session) StageTimings() []StageTiming {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]StageTiming(nil), s.timings...)
}

// classify repeatedly conditions out the most certain subject until no
// marginal crosses a threshold. Marginals are read again after each
// collapse because conditioning shifts the survivors' posteriors; nothing
// in the loop consults the entropy, so a traced session reads it once the
// loop has settled (absorbLocked). The marginals of the settled posterior
// stay held for the next stage's selection.
func (s *Session) classify() error {
	for s.model != nil {
		marg, err := s.marginals()
		if err != nil {
			return err
		}
		// Most extreme crossing first: the strongest call distorts the
		// remaining posterior least when conditioned on.
		bestPos, bestExtremity := -1, 0.0
		positive := false
		for pos, g := range marg {
			var ext float64
			var isPos bool
			switch {
			case g >= s.cfg.PosThreshold:
				ext, isPos = g-s.cfg.PosThreshold, true
			case g <= s.cfg.NegThreshold:
				ext, isPos = s.cfg.NegThreshold-g, false
			default:
				continue
			}
			if bestPos == -1 || ext > bestExtremity {
				bestPos, bestExtremity, positive = pos, ext, isPos
			}
		}
		if bestPos == -1 {
			return nil
		}
		if err := s.record(bestPos, positive, marg[bestPos], false); err != nil {
			return err
		}
	}
	return nil
}

// record classifies the subject at model position pos and collapses it
// out of the posterior. When it is the last subject, the model is closed
// and the session completes.
func (s *Session) record(pos int, positive bool, marginal float64, forced bool) error {
	g := s.active[pos]
	status := StatusNegative
	if positive {
		status = StatusPositive
	}
	s.calls[g] = Classification{Subject: g, Status: status, Marginal: marginal, Stage: s.stage, Forced: forced}
	if s.model.N() == 1 {
		return s.closeLocked()
	}
	reduced, err := s.model.Condition(pos, positive)
	if err != nil {
		return err
	}
	if reduced == nil {
		// Conditioning on a zero-mass event cannot happen for a threshold
		// crossing (the marginal bounds the event mass away from zero), but
		// a forced call at marginal exactly 0 or 1 can hit it; fall back to
		// the complementary event, keeping the recorded call.
		reduced, err = s.model.Condition(pos, !positive)
		if err != nil {
			return err
		}
		if reduced == nil {
			return s.closeLocked()
		}
	}
	s.model = reduced
	s.marg = nil // the collapse moved every survivor's marginal
	// Condition re-wraps the backend, so re-resolve the trace-carrier
	// capability on the new wrapper (the context itself transfers with the
	// driver's connections).
	s.carrier = carrierOf(reduced)
	s.active = append(s.active[:pos], s.active[pos+1:]...)
	return nil
}

// Result summarizes a completed run.
type Result struct {
	Classifications []Classification // per subject, global order
	Tests           int              // physical tests consumed
	Stages          int              // sequential stages consumed
	Converged       bool             // false when MaxStages forced the tail calls
	EntropyTrace    []float64        // posterior entropy (bits) after each stage, [0] the prior; empty unless Config.EntropyTrace
	Log             []TestRecord     // every test in execution order
	StageTimings    []StageTiming    // wall-time phase breakdown per stage
}

// TestsPerSubject returns Tests divided by the cohort size.
func (r *Result) TestsPerSubject() float64 {
	if len(r.Classifications) == 0 {
		return 0
	}
	return float64(r.Tests) / float64(len(r.Classifications))
}

// Positives returns the set of subjects classified positive.
func (r *Result) Positives() bitvec.Mask {
	var m bitvec.Mask
	for _, c := range r.Classifications {
		if c.Status == StatusPositive {
			m = m.With(c.Subject)
		}
	}
	return m
}

// Run drives Step until every subject is classified or MaxStages is
// reached, then force-classifies any leftovers at the posterior mode
// (marginal ≥ ½ ⇒ positive).
func (s *Session) Run(test TestFunc) (*Result, error) {
	converged := true
	for !s.Done() {
		if s.Stage() >= s.cfg.MaxStages {
			converged = false
			if err := s.forceRemaining(); err != nil {
				return nil, err
			}
			break
		}
		if err := s.Step(test); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultLocked(converged), nil
}

// Result assembles the campaign summary from the session's current state
// — the propose/absorb counterpart of Run's return value. On a completed
// session it matches what Run would have returned: a campaign converged
// exactly when no call was forced.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	converged := true
	for _, c := range s.calls {
		if c.Forced {
			converged = false
			break
		}
	}
	return s.resultLocked(converged)
}

func (s *Session) resultLocked(converged bool) *Result {
	return &Result{
		Classifications: s.classificationsLocked(),
		Tests:           s.tests,
		Stages:          s.stage,
		Converged:       converged,
		EntropyTrace:    append([]float64(nil), s.entropy...),
		Log:             append([]TestRecord(nil), s.log...),
		StageTimings:    append([]StageTiming(nil), s.timings...),
	}
}

// forceRemaining classifies every still-unknown subject at the posterior
// mode. Calls are marked Forced so analyses can separate them.
func (s *Session) forceRemaining() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.model != nil {
		marg, err := s.marginals()
		if err != nil {
			return err
		}
		// Most certain first, mirroring classify.
		best, bestDist := 0, -1.0
		for pos := range marg {
			if d := math.Abs(marg[pos] - 0.5); d > bestDist {
				best, bestDist = pos, d
			}
		}
		if err := s.record(best, marg[best] >= 0.5, marg[best], true); err != nil {
			return err
		}
	}
	return nil
}
