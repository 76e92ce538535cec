package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/posterior"
)

// A session checkpoint has one layout, whatever the session's shape:
//
//	magic "SBGTSESS" | one gob sessionHeader | raw little-endian tail
//
// The tail is the 2^N dense posterior as float64s (dense and cluster
// backends; a cluster posterior is gathered first), or the sparse support's
// |support| states as uint64s followed by their |support| masses as
// float64s, or nothing for a completed session. The header says which and
// how long, so a loader knows the tail's exact size before it reads a byte
// of it.
const checkpointMagic = "SBGTSESS"

// checkpointVersion is the layout's version, the header's first field. It
// follows the retired gob-first layout's versions 1–3, which this build
// refuses by name rather than reads.
const checkpointVersion = 4

// tailChunk is how many 8-byte words the tail moves per write or read
// (64 KiB).
const tailChunk = 8192

func init() {
	// Register every concrete response model so the interface value in the
	// header round-trips. A third-party Response implementation must be
	// registered by the caller with gob.Register before a session holding
	// it is saved or loaded.
	gob.Register(dilution.Ideal{})
	gob.Register(dilution.Binary{})
	gob.Register(dilution.Hyperbolic{})
	gob.Register(dilution.Logistic{})
	gob.Register(dilution.Subsample{})
	gob.Register(dilution.CtValue{})
}

// sessionHeader is everything a checkpoint holds except the posterior's
// bulk. The selection strategy is deliberately NOT serialized: strategies
// are arbitrary (possibly stateful) implementations the format cannot
// promise to round-trip, so LoadSession takes the strategy from the
// caller — which also lets an operator change selection policy across a
// restart without invalidating the posterior.
type sessionHeader struct {
	Version int
	Active  []int // model position -> global subject; empty once the session is done
	Calls   []Classification
	Stage   int
	Tests   int
	Entropy []float64
	Log     []TestRecord
	// Pending is the outstanding proposal's pools as model-position masks,
	// in proposal order; the stage counter already counts the open stage.
	// A restored stage's StageTiming reports Select 0: the proposal's
	// select wall time is not carried.
	Pending []bitvec.Mask
	// Config echo (minus Strategy, which the caller supplies).
	Lookahead    int
	PosThreshold float64
	NegThreshold float64
	MaxStages    int
	EntropyTrace bool
	// Posterior describes the tail; nil for a completed session.
	Posterior *posteriorHeader
}

// posteriorHeader is a posterior.Snapshot without its bulk slices.
type posteriorHeader struct {
	Kind     posterior.Kind
	Risks    []float64
	Response dilution.Response
	Tests    int
	Eps      float64 // sparse only
	Pruned   float64 // sparse only
	Support  int     // sparse only: retained states in the tail
}

// SaveSession checkpoints a session: classifications made so far, the
// stage/test counters, the test log, any outstanding ProposePools
// proposal, and — unless the session is already complete — the live
// posterior over the still-active subjects. The encoding is one gob
// message and one raw tail (see checkpointMagic).
func (s *Session) SaveSession(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := sessionHeader{
		Version:      checkpointVersion,
		Calls:        s.calls,
		Stage:        s.stage,
		Tests:        s.tests,
		Entropy:      s.entropy,
		Log:          s.log,
		Lookahead:    s.cfg.Lookahead,
		PosThreshold: s.cfg.PosThreshold,
		NegThreshold: s.cfg.NegThreshold,
		MaxStages:    s.cfg.MaxStages,
		EntropyTrace: s.cfg.EntropyTrace,
	}
	var snap *posterior.Snapshot
	if s.model != nil {
		var err error
		if snap, err = s.model.Snapshot(); err != nil {
			return fmt.Errorf("core: snapshot posterior: %w", err)
		}
		p := &posteriorHeader{Kind: snap.Kind, Risks: snap.Risks, Response: snap.Response, Tests: snap.Tests}
		switch snap.Kind {
		case posterior.KindDense, posterior.KindCluster:
			if uint64(len(snap.Dense)) != uint64(1)<<uint(len(snap.Risks)) {
				return fmt.Errorf("core: %s snapshot has %d states for %d subjects", snap.Kind, len(snap.Dense), len(snap.Risks))
			}
		case posterior.KindSparse:
			p.Eps, p.Pruned, p.Support = snap.Eps, snap.Pruned, len(snap.States)
		default:
			return fmt.Errorf("core: cannot checkpoint backend %q", snap.Kind)
		}
		h.Active, h.Posterior = s.active, p
		if s.pend != nil {
			h.Pending = s.pend.local
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(&h); err != nil {
		return fmt.Errorf("core: encode session header: %w", err)
	}
	var err error
	switch {
	case snap == nil:
	case snap.Kind == posterior.KindSparse:
		if err = writeTail(bw, snap.States); err == nil {
			err = writeTail(bw, snap.Mass)
		}
	default:
		err = writeTail(bw, snap.Dense)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// SaveFile checkpoints the session to path atomically: SaveSession into a
// temporary file beside path (path's base name + ".tmp" + a random
// suffix), then a rename over path, so a reader of path finds the previous
// checkpoint or this one and never a torn file. A failed save removes its
// temporary file; a crash between create and rename leaves it behind for
// whoever owns the directory to sweep.
func (s *Session) SaveFile(path string) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name()) // best effort: the save error is the one to report
		}
	}()
	err = s.SaveSession(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
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
//
// reg, when non-nil, observes the resumed session as Config.Obs observes
// a fresh one: its stage phases report to sbgt_session_stage_seconds and
// its posterior is instrumented. A nil reg resumes it unobserved. A
// resumed session is never traced; its stage spans time but record
// nowhere.
func LoadSession(r io.Reader, pool *engine.Pool, strategy halving.Strategy, reg *obs.Registry) (*Session, error) {
	h, snap, err := readCheckpoint(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	s := &Session{
		active:  h.Active,
		calls:   h.Calls,
		stage:   h.Stage,
		tests:   h.Tests,
		entropy: h.Entropy,
		log:     h.Log,
		cfg: Config{
			Lookahead:    h.Lookahead,
			PosThreshold: h.PosThreshold,
			NegThreshold: h.NegThreshold,
			MaxStages:    h.MaxStages,
			EntropyTrace: h.EntropyTrace,
			Obs:          reg,
		},
		phases: newStagePhases(reg),
		root:   (*obs.Tracer)(nil).Start("session"),
	}
	if snap == nil {
		return s, nil
	}
	model, err := posterior.FromSnapshot(pool, snap)
	if err != nil {
		return nil, fmt.Errorf("core: load %s posterior: %w", snap.Kind, err)
	}
	// Rebuild the config through the usual validation path so the resumed
	// session enforces the same invariants as a fresh one.
	s.cfg.Strategy = strategy
	if s.cfg, err = configFor(model, s.cfg); err != nil {
		return nil, err
	}
	if s.marg, err = model.Marginals(); err != nil {
		return nil, fmt.Errorf("core: restored marginals: %w", err)
	}
	s.model = posterior.Instrument(model, reg)
	if len(h.Pending) > 0 {
		s.pend = &pending{
			span:   s.root.Child("stage", obs.A("stage", h.Stage)),
			timing: StageTiming{Stage: h.Stage},
			local:  h.Pending,
		}
		for _, p := range h.Pending {
			s.pend.global = append(s.pend.global, s.globalMask(p))
		}
	}
	return s, nil
}

// readCheckpoint decodes and checks one checkpoint: the magic, the header
// (checkHeader), and exactly the tail the header announces. It returns a
// nil snapshot for a completed session.
func readCheckpoint(br *bufio.Reader) (*sessionHeader, *posterior.Snapshot, error) {
	head, err := br.Peek(len(checkpointMagic))
	if err != nil {
		return nil, nil, fmt.Errorf("core: read checkpoint magic: %w", err)
	}
	if string(head) != checkpointMagic {
		return nil, nil, formatError(br)
	}
	if _, err := br.Discard(len(checkpointMagic)); err != nil {
		return nil, nil, fmt.Errorf("core: read checkpoint magic: %w", err)
	}
	var h sessionHeader
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return nil, nil, fmt.Errorf("core: decode session header: %w", err)
	}
	if err := checkHeader(&h); err != nil {
		return nil, nil, err
	}
	var snap *posterior.Snapshot
	if p := h.Posterior; p != nil {
		snap = &posterior.Snapshot{Kind: p.Kind, Risks: p.Risks, Response: p.Response, Tests: p.Tests, Eps: p.Eps, Pruned: p.Pruned}
		if p.Kind == posterior.KindSparse {
			n := uint64(p.Support)
			if snap.States, err = readTail[uint64](br, n); err == nil {
				snap.Mass, err = readTail[float64](br, n)
			}
		} else {
			snap.Dense, err = readTail[float64](br, uint64(1)<<uint(len(p.Risks)))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: read posterior (truncated checkpoint?): %w", err)
		}
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, nil, errors.New("core: trailing bytes after the checkpoint's tail")
	case err != io.EOF:
		return nil, nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	return &h, snap, nil
}

// formatError names what a stream without the checkpoint magic holds: a
// checkpoint in the retired gob-first layout (whose stream opens with the
// gob type definition of its header) or something else.
func formatError(br *bufio.Reader) error {
	head, _ := br.Peek(32) //lint:allow errcheck a short stream is named by the bytes it has
	if bytes.Contains(head, []byte("sessionHeader")) {
		return fmt.Errorf("core: a session checkpoint in the retired gob-first layout (versions 1–3); this build reads only version %d (magic %q) — finish the campaign on the build that wrote it", checkpointVersion, checkpointMagic)
	}
	return fmt.Errorf("core: not a session checkpoint: starts %q, want magic %q", head[:min(len(head), len(checkpointMagic))], checkpointMagic)
}

// checkHeader rejects a header that describes no session this package
// could have written, before any of the tail is read: no subject active
// twice or both active and called, every unclassified subject active while
// a posterior is present, the counters non-negative, an outstanding
// proposal only on a live stage, and a posterior whose size the backend's
// bounds allow.
func checkHeader(h *sessionHeader) error {
	if h.Version != checkpointVersion {
		return fmt.Errorf("core: session checkpoint version %d, this build reads %d", h.Version, checkpointVersion)
	}
	n := len(h.Calls)
	if n == 0 || n > bitvec.MaxSubjects {
		return fmt.Errorf("core: checkpoint cohort of %d subjects", n)
	}
	if h.Stage < 0 || h.Tests < 0 {
		return fmt.Errorf("core: checkpoint counters stage %d, tests %d", h.Stage, h.Tests)
	}
	unknown := 0
	for i, c := range h.Calls {
		if c.Subject != i {
			return fmt.Errorf("core: call %d is for subject %d", i, c.Subject)
		}
		if c.Status == StatusUnknown {
			unknown++
		}
	}
	var seen bitvec.Mask
	for _, g := range h.Active {
		if g < 0 || g >= n {
			return fmt.Errorf("core: active subject %d outside cohort of %d", g, n)
		}
		if seen.Has(g) {
			return fmt.Errorf("core: subject %d is active twice", g)
		}
		seen = seen.With(g)
		if h.Calls[g].Status != StatusUnknown {
			return fmt.Errorf("core: active subject %d is already called %v", g, h.Calls[g].Status)
		}
	}
	p := h.Posterior
	if p == nil {
		if len(h.Active) > 0 || len(h.Pending) > 0 {
			return fmt.Errorf("core: completed checkpoint lists %d active subjects and %d pending pools", len(h.Active), len(h.Pending))
		}
		return nil
	}
	if len(h.Active) == 0 || len(h.Active) != unknown {
		return fmt.Errorf("core: checkpoint posterior covers %d active subjects, %d are unclassified", len(h.Active), unknown)
	}
	if len(p.Risks) != len(h.Active) {
		return fmt.Errorf("core: posterior has %d subjects, header lists %d active", len(p.Risks), len(h.Active))
	}
	if p.Response == nil {
		return errors.New("core: checkpoint posterior has no response model")
	}
	switch p.Kind {
	case posterior.KindDense, posterior.KindCluster:
		if len(p.Risks) > lattice.MaxSubjects || p.Support != 0 {
			return fmt.Errorf("core: %s posterior over %d subjects with a %d-state support", p.Kind, len(p.Risks), p.Support)
		}
	case posterior.KindSparse:
		if p.Support < 1 || (len(p.Risks) < 64 && uint64(p.Support) > uint64(1)<<uint(len(p.Risks))) {
			return fmt.Errorf("core: sparse support of %d states over %d subjects", p.Support, len(p.Risks))
		}
	default:
		return fmt.Errorf("core: unknown checkpoint backend %q", p.Kind)
	}
	if len(h.Pending) > 0 && h.Stage < 1 {
		return fmt.Errorf("core: pending proposal on stage %d", h.Stage)
	}
	cohort := bitvec.Full(len(h.Active))
	for i, m := range h.Pending {
		if m == 0 || !m.SubsetOf(cohort) {
			return fmt.Errorf("core: pending pool %d (%v) outside cohort of %d", i, m, len(h.Active))
		}
	}
	return nil
}

// writeTail writes vals as little-endian 8-byte words (a float64 as its
// IEEE-754 bits), tailChunk at a time.
func writeTail[T float64 | uint64](w io.Writer, vals []T) error {
	buf := make([]byte, 8*tailChunk)
	for off := 0; off < len(vals); off += tailChunk {
		n := 0
		switch vs := any(vals[off:min(off+tailChunk, len(vals))]).(type) { // once a chunk, so the loops are concrete
		case []float64:
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
				n += 8
			}
		case []uint64:
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[n:], v)
				n += 8
			}
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// readTail reads n little-endian 8-byte words, tailChunk at a time. The
// slice grows with what has arrived, never with what the header claims: a
// corrupt or crafted header can announce 2^30 states over ten bytes, and a
// server restoring evicted cohorts must fail on the short read, not
// commit gigabytes to a lie.
func readTail[T float64 | uint64](r io.Reader, n uint64) ([]T, error) {
	out := make([]T, 0, min(n, tailChunk))
	buf := make([]byte, 8*min(n, tailChunk))
	for off := uint64(0); off < n; off += tailChunk {
		chunk := buf[:8*min(n-off, tailChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		out = slices.Grow(out, len(chunk)/8)[:len(out)+len(chunk)/8]
		switch vs := any(out[off:]).(type) {
		case []float64:
			for i := range vs {
				vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:]))
			}
		case []uint64:
			for i := range vs {
				vs[i] = binary.LittleEndian.Uint64(chunk[8*i:])
			}
		}
	}
	return out, nil
}
