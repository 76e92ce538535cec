package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/latticeio"
	"repro/internal/obs"
	"repro/internal/posterior"
)

// sessionHeader is the gob-encoded session metadata that precedes the
// posterior checkpoint. The selection strategy is deliberately NOT
// serialized: strategies are arbitrary (possibly stateful) implementations
// the checkpoint format cannot promise to round-trip, so LoadSession takes
// the strategy from the caller's config — which also lets an operator
// change selection policy across a restart without invalidating the
// posterior.
type sessionHeader struct {
	Version int
	// Backend tags the payload that follows (a posterior.Kind). Version-1
	// checkpoints predate the field; gob leaves it "", which reads as
	// dense — exactly what every v1 checkpoint holds.
	Backend string
	Active  []int
	Calls   []Classification
	Stage   int
	Tests   int
	Entropy []float64
	Log     []TestRecord
	// Config echo (minus Strategy/Response, which live with the payload
	// or the caller).
	Lookahead    int
	PosThreshold float64
	NegThreshold float64
	MaxStages    int
	Parts        int
	Done         bool
	// EntropyTrace echoes Config.EntropyTrace so a resumed traced campaign
	// keeps extending Entropy. Checkpoints that predate the field decode it
	// false: their recorded prefix stays and nothing is appended.
	EntropyTrace bool
}

const sessionVersion = 2

// sessionVersionPending tags a checkpoint taken while a ProposePools
// proposal was outstanding: the posterior payload is followed by one
// pendingPayload gob message. Sessions with no outstanding proposal keep
// writing version 2, byte-for-byte identical to the historical format —
// the new version exists only for the new state.
const sessionVersionPending = 3

// sparsePayload is the gob-encoded posterior block of a sparse-backed
// checkpoint: the retained support plus the truncation accounting.
type sparsePayload struct {
	Snapshot posterior.Snapshot
}

// pendingPayload trails a version-3 checkpoint: the outstanding proposal's
// pools as model-position masks, in proposal order. The stage counter in
// the header already counts the open stage; the restored session
// re-enters the waiting-for-results state with the same pools. The
// proposal's select wall time is not carried — a restored stage's
// StageTiming reports Select 0.
type pendingPayload struct {
	Pools []bitvec.Mask
}

// SaveSession checkpoints a mid-campaign session: classifications made so
// far, the stage/test counters, the test log, and — unless the session is
// already complete — the live posterior over the still-active subjects.
// The payload is backend-tagged: dense and cluster posteriors write the
// latticeio dense format (a cluster posterior is gathered to the driver
// first), sparse posteriors write their retained support. A session
// checkpointed while a ProposePools proposal is outstanding additionally
// records the proposed pools (version 3), so an evicted-and-restored
// cohort resumes waiting for the same lab results.
func (s *Session) SaveSession(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(w)
	h := sessionHeader{
		Version:      sessionVersion,
		Active:       s.active,
		Calls:        s.calls,
		Stage:        s.stage,
		Tests:        s.tests,
		Entropy:      s.entropy,
		Log:          s.log,
		Lookahead:    s.cfg.Lookahead,
		PosThreshold: s.cfg.PosThreshold,
		NegThreshold: s.cfg.NegThreshold,
		MaxStages:    s.cfg.MaxStages,
		Parts:        s.cfg.Parts,
		Done:         s.model == nil,
		EntropyTrace: s.cfg.EntropyTrace,
	}
	if s.pend != nil {
		h.Version = sessionVersionPending
	}
	var snap *posterior.Snapshot
	if s.model != nil {
		var err error
		snap, err = s.model.Snapshot()
		if err != nil {
			return fmt.Errorf("core: snapshot posterior: %w", err)
		}
		h.Backend = string(snap.Kind)
	}
	if err := gob.NewEncoder(bw).Encode(&h); err != nil {
		return fmt.Errorf("core: encode session header: %w", err)
	}
	if snap != nil {
		switch snap.Kind {
		case posterior.KindDense, posterior.KindCluster:
			if err := latticeio.SaveRaw(bw, snap.Risks, snap.Response, snap.Tests, snap.Dense); err != nil {
				return fmt.Errorf("core: save posterior: %w", err)
			}
		case posterior.KindSparse:
			if err := gob.NewEncoder(bw).Encode(&sparsePayload{Snapshot: *snap}); err != nil {
				return fmt.Errorf("core: save sparse posterior: %w", err)
			}
		default:
			return fmt.Errorf("core: cannot checkpoint backend %q", snap.Kind)
		}
	}
	if s.pend != nil {
		if err := gob.NewEncoder(bw).Encode(&pendingPayload{Pools: s.pend.local}); err != nil {
			return fmt.Errorf("core: save pending proposal: %w", err)
		}
	}
	return bw.Flush()
}

// ObserveFlight attaches a flight scope to a session LoadSession
// restored — it starts unobserved — so a served cohort's stage_propose
// and stage_absorb events survive an evict/restore cycle, and the dump a
// churning server freezes still accounts for selection and absorb.
func (s *Session) ObserveFlight(f *obs.FlightScope) {
	s.mu.Lock()
	s.cfg.Flight = f
	s.mu.Unlock()
}

// LoadSession restores a session checkpoint onto the pool. strategy
// supplies the selection policy for the resumed campaign (nil selects the
// default halving strategy); it must be compatible with the Lookahead
// recorded in the checkpoint (lookahead > 1 requires halving and a
// backend that can branch, as at session construction).
//
// Dense checkpoints resume on the dense backend and sparse checkpoints on
// the sparse backend. Cluster checkpoints resume as *dense* sessions: the
// checkpoint carries the gathered posterior, and which executors to dial
// is a deployment decision, not a checkpoint property — re-open a cluster
// session explicitly if distribution is still wanted.
func LoadSession(r io.Reader, pool *engine.Pool, strategy halving.Strategy) (*Session, error) {
	br := bufio.NewReader(r)
	var h sessionHeader
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return nil, fmt.Errorf("core: decode session header: %w", err)
	}
	if h.Version < 1 || h.Version > sessionVersionPending {
		return nil, fmt.Errorf("core: unsupported session checkpoint version %d", h.Version)
	}
	if h.Version == sessionVersionPending && h.Done {
		return nil, fmt.Errorf("core: checkpoint claims a pending proposal on a completed session")
	}
	if len(h.Calls) == 0 {
		return nil, fmt.Errorf("core: checkpoint has no subjects")
	}
	if !h.Done && len(h.Active) == 0 {
		return nil, fmt.Errorf("core: checkpoint claims live posterior but has no active subjects")
	}
	for _, g := range h.Active {
		if g < 0 || g >= len(h.Calls) {
			return nil, fmt.Errorf("core: active subject %d outside cohort of %d", g, len(h.Calls))
		}
	}
	s := &Session{
		active:  h.Active,
		calls:   h.Calls,
		stage:   h.Stage,
		tests:   h.Tests,
		entropy: h.Entropy,
		log:     h.Log,
		// Resumed sessions start unobserved; the detached phase metrics and
		// detached root span keep the stage loop's timing path valid. Attach
		// a registry by setting cfg.Obs before resuming a campaign through
		// NewSessionOn instead.
		phases: newStagePhases(nil),
		root:   (*obs.Tracer)(nil).Start("session"),
	}
	if !h.Done {
		backend := posterior.Kind(h.Backend)
		if backend == "" {
			backend = posterior.KindDense // version-1 checkpoints are dense
		}
		// Decode the backend's payload into a Snapshot; posterior.FromSnapshot
		// owns the one snapshot → model switch.
		snap := &posterior.Snapshot{Kind: backend}
		switch backend {
		case posterior.KindDense, posterior.KindCluster:
			var err error
			snap.Risks, snap.Response, snap.Tests, snap.Dense, err = latticeio.LoadRaw(br)
			if err != nil {
				return nil, fmt.Errorf("core: load posterior: %w", err)
			}
		case posterior.KindSparse:
			var p sparsePayload
			if err := gob.NewDecoder(br).Decode(&p); err != nil {
				return nil, fmt.Errorf("core: load sparse posterior: %w", err)
			}
			snap = &p.Snapshot
			snap.Kind = backend
		default:
			return nil, fmt.Errorf("core: unknown checkpoint backend %q", h.Backend)
		}
		model, err := posterior.FromSnapshot(pool, snap, h.Parts)
		if err != nil {
			return nil, fmt.Errorf("core: load %s posterior: %w", backend, err)
		}
		if model.N() != len(h.Active) {
			return nil, fmt.Errorf("core: posterior has %d subjects, header lists %d active", model.N(), len(h.Active))
		}
		s.model = model
		marg, err := model.Marginals()
		if err != nil {
			return nil, fmt.Errorf("core: restored marginals: %w", err)
		}
		s.marg = marg
		// Rebuild the config through the usual validation path so the
		// resumed session enforces the same invariants as a fresh one.
		full, err := configFor(model, Config{
			Strategy:     strategy,
			Lookahead:    h.Lookahead,
			PosThreshold: h.PosThreshold,
			NegThreshold: h.NegThreshold,
			MaxStages:    h.MaxStages,
			Parts:        h.Parts,
			EntropyTrace: h.EntropyTrace,
		})
		if err != nil {
			return nil, err
		}
		s.cfg = full
		if h.Version == sessionVersionPending {
			var pp pendingPayload
			if err := gob.NewDecoder(br).Decode(&pp); err != nil {
				return nil, fmt.Errorf("core: load pending proposal: %w", err)
			}
			if len(pp.Pools) == 0 {
				return nil, fmt.Errorf("core: pending proposal is empty")
			}
			if h.Stage < 1 {
				return nil, fmt.Errorf("core: pending proposal on stage %d", h.Stage)
			}
			cohort := bitvec.Full(model.N())
			pend := &pending{
				span:   s.root.Child("stage", obs.A("stage", h.Stage)),
				timing: StageTiming{Stage: h.Stage},
			}
			for i, p := range pp.Pools {
				if p == 0 || !p.SubsetOf(cohort) {
					return nil, fmt.Errorf("core: pending pool %d (%v) outside cohort of %d", i, p, model.N())
				}
				pend.local = append(pend.local, p)
				pend.global = append(pend.global, s.globalMask(p))
			}
			s.pend = pend
		}
	} else {
		s.cfg = Config{
			Lookahead:    h.Lookahead,
			PosThreshold: h.PosThreshold,
			NegThreshold: h.NegThreshold,
			MaxStages:    h.MaxStages,
			Parts:        h.Parts,
			EntropyTrace: h.EntropyTrace,
		}
	}
	return s, nil
}
