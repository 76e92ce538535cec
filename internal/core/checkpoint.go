package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/wire"
)

// A session checkpoint has one layout, whatever the session's shape:
//
//	magic "SBGTSESS" | version byte | header length, 4 bytes LE | header | raw little-endian tail | CRC-32C, 4 bytes LE
//
// The header is one fixed binary record (sessionHeader.code, coded by
// internal/wire: every field in declaration order, integers as varints,
// floats as their 8 bytes, slices as a count and their elements), and the
// reader takes only what the writer makes, so an accepted header
// re-encodes to its own bytes. The tail is the 2^N dense posterior as
// float64s at any positive scale (dense and cluster backends; a dense one
// is the lattice's stored mass, written from and read into its storage as
// it is, a cluster one gathered first), or the sparse
// support's |support| states as uint64s followed by their |support|
// masses as float64s, or nothing for a completed session. The header says
// which and how long, so a loader knows the tail's exact size before it
// reads a byte of it. The trailer is the CRC-32C (Castagnoli) of every
// byte before it, summed as they are written and checked as they are read,
// so a torn or corrupt checkpoint is refused rather than resumed.
const checkpointMagic = "SBGTSESS"

// checkpointVersion is the layout's version, the byte after the magic. It
// follows version 5 (the same header without a generation, and no
// trailer), version 4, whose header was one gob message, and the retired
// gob-first layout's versions 1–3; this build refuses all of them by name
// rather than reads them.
const checkpointVersion = 6

// castagnoli is the CRC-32C table of the checkpoint trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// headerPrefix is the version byte and the header's length.
	headerPrefix = 1 + 4
	// trailerLen is the CRC-32C trailer's length.
	trailerLen = 4
	// headerChunk is a header read's first step; each later one at most
	// doubles what arrived (wire.ReadN).
	headerChunk = 4 << 10
	// tailCap is how many states a tail's first allocation holds at most
	// (512 KiB): the storage the header asks for, up to this, and past it
	// only twice what has arrived.
	tailCap = 1 << 16
)

// sessionHeader is everything a checkpoint holds except the posterior's
// bulk. The selection strategy is deliberately NOT serialized: strategies
// are arbitrary (possibly stateful) implementations the format cannot
// promise to round-trip, so LoadSession takes the strategy from the
// caller — which also lets an operator change selection policy across a
// restart without invalidating the posterior.
type sessionHeader struct {
	Version int // the byte before the record, not a field of it
	// Gen is the save's generation in its checkpoint pair (Pair): 1 for the
	// pair's first save, one more for each save after it; 0 for a stream
	// save (SaveSession), which belongs to no pair.
	Gen     uint64
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

// code is the header record's one field list: it writes h to c, or reads
// it from c.
func (h *sessionHeader) code(c *wire.Codec) {
	c.Uvarint(&h.Gen)
	wire.Each(c, &h.Active, 1, c.Int)
	wire.Each(c, &h.Calls, 12, func(k *Classification) { // 12: four one-byte varints and a float
		c.Int(&k.Subject)
		status := uint64(k.Status)
		if c.Uvarint(&status); c.Dec && status > uint64(StatusPositive) {
			c.Fail("unknown call status %d", status)
		} else if c.Dec {
			k.Status = Status(status)
		}
		c.Float(&k.Marginal)
		c.Int(&k.Stage)
		c.Bool(&k.Forced)
	})
	c.Int(&h.Stage)
	c.Int(&h.Tests)
	c.Floats(&h.Entropy)
	wire.Each(c, &h.Log, 11, func(r *TestRecord) { // 11: three one-byte varints and a float
		c.Int(&r.Stage)
		c.Uvarint((*uint64)(&r.Pool))
		c.Bool(&r.Outcome.Positive)
		c.Float(&r.Outcome.Ct)
	})
	wire.Each(c, &h.Pending, 1, func(m *bitvec.Mask) { c.Uvarint((*uint64)(m)) })
	c.Int(&h.Lookahead)
	c.Float(&h.PosThreshold)
	c.Float(&h.NegThreshold)
	c.Int(&h.MaxStages)
	c.Bool(&h.EntropyTrace)
	live := h.Posterior != nil
	if c.Bool(&live); !live {
		return
	}
	if c.Dec {
		h.Posterior = new(posteriorHeader)
	}
	p := h.Posterior
	kind := string(p.Kind)
	if c.Str(&kind); c.Dec {
		p.Kind = posterior.Kind(kind)
	}
	c.Floats(&p.Risks)
	codeResponse(c, &p.Response)
	c.Int(&p.Tests)
	c.Float(&p.Eps)
	c.Float(&p.Pruned)
	c.Int(&p.Support)
}

// The response tags: a header names its assay model by one of the six
// shipped dilution types and then gives that type's parameters in
// declaration order. Tag 0 is no model, which checkHeader refuses.
const (
	respNone = iota
	respIdeal
	respBinary
	respHyperbolic
	respLogistic
	respSubsample
	respCt
)

// codeResponse codes a response model as its tag and parameters. Written,
// any other type fails with its name: a checkpoint holds only models this
// package can rebuild.
func codeResponse(c *wire.Codec, r *dilution.Response) {
	var tag uint64
	if !c.Dec {
		switch (*r).(type) {
		case nil:
			tag = respNone
		case dilution.Ideal:
			tag = respIdeal
		case dilution.Binary:
			tag = respBinary
		case dilution.Hyperbolic:
			tag = respHyperbolic
		case dilution.Logistic:
			tag = respLogistic
		case dilution.Subsample:
			tag = respSubsample
		case dilution.CtValue:
			tag = respCt
		default:
			c.Fail("cannot checkpoint response model %T: a checkpoint holds one of the six dilution models", *r)
			return
		}
	}
	c.Uvarint(&tag)
	switch tag {
	case respNone:
	case respIdeal:
		params(c, r, func(*dilution.Ideal) []*float64 { return nil })
	case respBinary:
		params(c, r, func(v *dilution.Binary) []*float64 { return []*float64{&v.Sens, &v.Spec} })
	case respHyperbolic:
		params(c, r, func(v *dilution.Hyperbolic) []*float64 { return []*float64{&v.MaxSens, &v.Spec, &v.D} })
	case respLogistic:
		params(c, r, func(v *dilution.Logistic) []*float64 { return []*float64{&v.MaxSens, &v.Spec, &v.Alpha, &v.Beta} })
	case respSubsample:
		params(c, r, func(v *dilution.Subsample) []*float64 { return []*float64{&v.Q, &v.Spec} })
	case respCt:
		params(c, r, func(v *dilution.CtValue) []*float64 {
			return []*float64{&v.Base, &v.Slope, &v.Sigma, &v.MaxCycles, &v.Spec, &v.ContamWindow}
		})
	default:
		c.Fail("unknown response model tag %d", tag)
	}
}

// params codes a response model of type T as the parameters fields lists.
func params[T dilution.Response](c *wire.Codec, r *dilution.Response, fields func(*T) []*float64) {
	v, _ := (*r).(T)
	for _, f := range fields(&v) {
		c.Float(f)
	}
	if c.Dec {
		*r = v
	}
}

// appendHeader appends h's version byte, length and record to b.
func appendHeader(b []byte, h *sessionHeader) ([]byte, error) {
	start := len(b)
	c := wire.Codec{All: true, B: append(b, byte(h.Version), 0, 0, 0, 0)}
	if h.code(&c); c.Err != nil {
		return nil, c.Err
	}
	n := len(c.B) - start - headerPrefix
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("header of %d bytes", n)
	}
	binary.LittleEndian.PutUint32(c.B[start+1:], uint32(n))
	return c.B, nil
}

// decodeHeader reads one header record of the given version from b, which
// it must use up.
func decodeHeader(version byte, b []byte) (*sessionHeader, error) {
	h := &sessionHeader{Version: int(version)}
	c := wire.Codec{Dec: true, All: true, B: b}
	h.code(&c)
	return h, c.Finish()
}

// SaveSession checkpoints a session: classifications made so far, the
// stage/test counters, the test log, any outstanding ProposePools
// proposal, and — unless the session is already complete — the live
// posterior over the still-active subjects. The encoding is one binary
// header, one raw tail and a CRC-32C trailer (see checkpointMagic); a
// stream save carries generation 0. Saving is a read: a dense posterior's
// tail is encoded straight from the lattice's storage, which, with its
// carried scale and held marginals, stays as it was. A session whose
// response model is not one of the six dilution types cannot be saved;
// the error names its type.
func (s *Session) SaveSession(w io.Writer) error { return s.save(w, 0) }

// save writes the session's checkpoint of generation gen to w, summing the
// CRC-32C as it goes and ending with it. A dense tail is the lattice's
// stored mass, unscaled, written with one Write from its storage.
func (s *Session) save(w io.Writer, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := sessionHeader{
		Version:      checkpointVersion,
		Gen:          gen,
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
	var dense *lattice.Model // the lattice a dense tail is read from in place
	if s.model != nil {
		if dense = posterior.Lattice(s.model); dense != nil {
			snap = &posterior.Snapshot{Kind: posterior.KindDense, Risks: dense.Risks(), Response: dense.Response(), Tests: dense.Tests()}
		} else {
			var err error
			if snap, err = s.model.Snapshot(); err != nil {
				return fmt.Errorf("core: snapshot posterior: %w", err)
			}
		}
		p := &posteriorHeader{Kind: snap.Kind, Risks: snap.Risks, Response: snap.Response, Tests: snap.Tests}
		switch snap.Kind {
		case posterior.KindDense, posterior.KindCluster:
			if dense == nil && uint64(len(snap.Dense)) != uint64(1)<<uint(len(snap.Risks)) {
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
	head, err := appendHeader(append(make([]byte, 0, 1<<10), checkpointMagic...), &h)
	if err != nil {
		return fmt.Errorf("core: encode session header: %w", err)
	}
	cw := &crcWriter{w: w}
	if _, err = cw.Write(head); err == nil {
		switch {
		case snap == nil:
		case dense != nil:
			err = dense.WriteStates(cw)
		case snap.Kind == posterior.KindSparse:
			if err = lattice.WriteWords(cw, snap.States); err == nil {
				err = lattice.WriteWords(cw, snap.Mass)
			}
		default:
			err = lattice.WriteWords(cw, snap.Dense)
		}
	}
	if err == nil {
		_, err = w.Write(binary.LittleEndian.AppendUint32(head[:0], cw.crc))
	}
	if err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// crcWriter hands what it is given on to w and sums it into crc.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (w *crcWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	return n, err
}

// Pair is a checkpoint on disk: two slot files, Path+".0" and Path+".1",
// each save overwriting the older one in place (from offset 0, with no
// truncation, temporary file or rename) and carrying the generation after
// the newer one's. A process killed mid-save leaves the slot it was
// writing torn, which its trailer gives away, and the other slot whole, so
// loading the pair resumes from the previous checkpoint or the new one,
// never a torn one, on any filesystem. A rewrite shorter than the slot's
// old contents leaves their end behind its trailer, where a pair's read
// stops. Durability across power loss is not promised: no save syncs.
//
// The caller keeps the value between saves and loads. A Pair that has not
// been saved or loaded in this process (Gen 0) knows nothing of its slots:
// its first load reads both, and its first save starts the pair afresh.
type Pair struct {
	Path string
	Slot int    // the slot the newest save is in
	Gen  uint64 // that save's generation, from 1; 0 while unknown
}

// slotSuffix names a pair's two slots after its Path.
var slotSuffix = [2]string{".0", ".1"}

// SlotFile returns the name of the pair's slot i (0 or 1).
func (p *Pair) SlotFile(i int) string { return p.Path + slotSuffix[i] }

// PairPath reports the pair path whose slot file name is, if it is one.
func PairPath(name string) (string, bool) {
	for _, suffix := range slotSuffix {
		if path, ok := strings.CutSuffix(name, suffix); ok {
			return path, true
		}
	}
	return "", false
}

// Remove deletes both of the pair's slots; a missing slot is no error.
func (p *Pair) Remove() error { return errors.Join(p.removeSlot(0), p.removeSlot(1)) }

// removeSlot deletes slot i; a missing slot is no error.
func (p *Pair) removeSlot(i int) error {
	if err := os.Remove(p.SlotFile(i)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// SavePair checkpoints the session into p's older slot, overwritten in
// place, as generation p.Gen+1, and on success records that slot in p as
// the newest. The first save of a pair (Gen 0) creates slot 0 and removes
// any slot 1 left by an earlier pair of that path, which could otherwise
// outrank it; the second creates slot 1. A failed save leaves p as it was,
// so the next save rewrites the same slot.
func (s *Session) SavePair(p *Pair) error {
	slot, gen := 1-p.Slot, p.Gen+1
	if p.Gen == 0 {
		slot = 0
		if err := p.removeSlot(1); err != nil {
			return fmt.Errorf("core: start checkpoint pair: %w", err)
		}
	}
	f, err := os.OpenFile(p.SlotFile(slot), os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		return err
	}
	err = s.save(f, gen)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.Slot, p.Gen = slot, gen
	return nil
}

// LoadSession restores a session checkpoint onto the pool. strategy
// supplies the selection policy for the resumed campaign (nil selects the
// default halving strategy); it must be compatible with the Lookahead
// recorded in the checkpoint (lookahead > 1 requires halving and a
// backend that can branch, as at session construction). The stream must
// end at the checkpoint's trailer.
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
	cr := &ckptReader{br: bufio.NewReader(r)}
	h, err := cr.header()
	if err != nil {
		return nil, err
	}
	snap, err := cr.rest(h, pool)
	if err != nil {
		return nil, err
	}
	switch _, err := cr.br.ReadByte(); {
	case err == nil:
		return nil, errors.New("core: trailing bytes after the checkpoint's trailer")
	case err != io.EOF:
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	return resume(h, snap, pool, strategy, reg)
}

// LoadPair restores the session a checkpoint pair holds, as LoadSession
// restores one from a stream, and records in p the slot it came from. A
// pair whose newest slot p knows (Gen > 0, from this process's last save
// or load) opens that slot alone and requires its generation. Otherwise
// both slots are read: the one of the higher generation whose trailer
// verifies wins, and the other is the fallback; when neither loads, the
// error names both files.
func LoadPair(p *Pair, pool *engine.Pool, strategy halving.Strategy, reg *obs.Registry) (*Session, error) {
	if p.Gen > 0 {
		return loadSlot(p.SlotFile(p.Slot), p.Gen, pool, strategy, reg)
	}
	var gens [2]uint64
	var errs [2]error
	for i := range gens {
		gens[i], errs[i] = slotGen(p.SlotFile(i))
	}
	order := [2]int{0, 1}
	if errs[0] != nil || (errs[1] == nil && gens[1] > gens[0]) {
		order = [2]int{1, 0}
	}
	for _, i := range order {
		if errs[i] != nil {
			continue
		}
		var s *Session
		if s, errs[i] = loadSlot(p.SlotFile(i), gens[i], pool, strategy, reg); errs[i] == nil {
			p.Slot, p.Gen = i, gens[i]
			return s, nil
		}
	}
	return nil, fmt.Errorf("core: no slot of checkpoint pair %s loads: %w; %w", p.Path, errs[0], errs[1])
}

// slotGen reads the generation from a slot's header.
func slotGen(name string) (uint64, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h, err := (&ckptReader{br: bufio.NewReader(f)}).header()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return h.Gen, nil
}

// loadSlot restores the session in one slot file, which must hold
// generation gen. The read stops at the checkpoint's trailer: what follows
// it is the end of a longer checkpoint the slot held before.
func loadSlot(name string, gen uint64, pool *engine.Pool, strategy halving.Strategy, reg *obs.Registry) (*Session, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := &ckptReader{br: bufio.NewReader(f)}
	h, err := cr.header()
	if err == nil && h.Gen != gen {
		err = fmt.Errorf("core: checkpoint of generation %d, the pair's newest is %d", h.Gen, gen)
	}
	var snap *posterior.Snapshot
	if err == nil {
		snap, err = cr.rest(h, pool)
	}
	var s *Session
	if err == nil {
		s, err = resume(h, snap, pool, strategy, reg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// resume builds the session a checkpoint's header and posterior describe.
func resume(h *sessionHeader, snap *posterior.Snapshot, pool *engine.Pool, strategy halving.Strategy, reg *obs.Registry) (*Session, error) {
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
	if s.cfg, err = configFor(model, s.cfg); err == nil {
		if s.marg, err = model.Marginals(); err != nil {
			err = fmt.Errorf("core: restored marginals: %w", err)
		}
	}
	if err != nil {
		model.Close() //lint:allow errcheck the load's error is the one to report
		return nil, err
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

// ckptReader reads one checkpoint from br, summing every byte before the
// trailer into crc as it passes.
type ckptReader struct {
	br  *bufio.Reader
	crc uint32
}

func (r *ckptReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc = crc32.Update(r.crc, castagnoli, p[:n])
	return n, err
}

// header decodes and checks (checkHeader) a checkpoint's magic, version
// and header record.
func (r *ckptReader) header() (*sessionHeader, error) {
	br := r.br
	head, err := br.Peek(len(checkpointMagic))
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint magic: %w", err)
	}
	if string(head) != checkpointMagic {
		return nil, formatError(br)
	}
	r.crc = crc32.Update(r.crc, castagnoli, head)
	if _, err := br.Discard(len(checkpointMagic)); err != nil {
		return nil, fmt.Errorf("core: read checkpoint magic: %w", err)
	}
	var pre [headerPrefix]byte
	if _, err := io.ReadFull(r, pre[:1]); err != nil {
		return nil, fmt.Errorf("core: read checkpoint version: %w", err)
	}
	if pre[0] != checkpointVersion {
		return nil, versionError(pre[0], br)
	}
	if _, err := io.ReadFull(r, pre[1:]); err != nil {
		return nil, fmt.Errorf("core: read session header length: %w", err)
	}
	b, err := wire.ReadN(r, nil, uint64(binary.LittleEndian.Uint32(pre[1:])), headerChunk)
	if err != nil {
		return nil, fmt.Errorf("core: read session header: %w", err)
	}
	h, err := decodeHeader(pre[0], b)
	if err != nil {
		return nil, fmt.Errorf("core: decode session header: %w", err)
	}
	if err := checkHeader(h); err != nil {
		return nil, err
	}
	return h, nil
}

// rest reads exactly the tail h announces and the trailer after it, which
// must hold the CRC-32C of every byte before it. It returns a nil snapshot
// for a completed session. A dense tail is read straight into a pool
// spare when one fits: at least the tail's 2^n states and at most the
// cohort's first size, 2^len(h.Calls) (engine.Pool.TakeSpare). A load that
// fails after taking one drops it, so the pool never keeps a half-written
// spare.
func (r *ckptReader) rest(h *sessionHeader, pool *engine.Pool) (*posterior.Snapshot, error) {
	var snap *posterior.Snapshot
	if p := h.Posterior; p != nil {
		snap = &posterior.Snapshot{Kind: p.Kind, Risks: p.Risks, Response: p.Response, Tests: p.Tests, Eps: p.Eps, Pruned: p.Pruned}
		var err error
		if p.Kind == posterior.KindSparse {
			n := uint64(p.Support)
			if snap.States, err = readTail[uint64](r, n, n, nil); err == nil {
				snap.Mass, err = readTail[float64](r, n, n, nil)
			}
		} else {
			n := uint64(1) << uint(len(p.Risks))
			// The cohort's first size; checkHeader holds len(p.Risks) to
			// at most both len(h.Calls) and lattice.MaxSubjects.
			first := uint64(1) << uint(min(len(h.Calls), lattice.MaxSubjects))
			snap.Dense, err = readTail(r, n, first, pool.TakeSpare(n, first))
		}
		if err != nil {
			return nil, fmt.Errorf("core: read posterior (truncated checkpoint?): %w", err)
		}
	}
	trailer, err := r.br.Peek(trailerLen)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint trailer (truncated checkpoint?): %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer); got != r.crc {
		return nil, fmt.Errorf("core: checkpoint trailer holds CRC-32C %08x, its bytes sum to %08x (torn or corrupt checkpoint)", got, r.crc)
	}
	_, err = r.br.Discard(trailerLen)
	return snap, err
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

// versionError names what follows the magic when it is not this build's
// version: a version 5 checkpoint (no generation, no trailer), a version 4
// one, whose gob header opens with the type definition of its header where
// the version byte now stands, or another version by number.
func versionError(v byte, br *bufio.Reader) error {
	if v == 5 {
		return fmt.Errorf("core: a session checkpoint of version 5 (no pair generation, no CRC-32C trailer); this build reads only version %d — finish the campaign on the build that wrote it", checkpointVersion)
	}
	head, _ := br.Peek(32) //lint:allow errcheck a short stream is named by the bytes it has
	if bytes.Contains(head, []byte("sessionHeader")) {
		return fmt.Errorf("core: a session checkpoint with a gob header (version 4); this build reads only version %d — finish the campaign on the build that wrote it", checkpointVersion)
	}
	return fmt.Errorf("core: session checkpoint version %d, this build reads %d", v, checkpointVersion)
}

// checkHeader rejects a header that describes no session this package
// could have written, before any of the tail is read: no subject active
// twice or both active and called, every unclassified subject active while
// a posterior is present, the counters non-negative, an outstanding
// proposal only on a live stage, and a posterior whose size the backend's
// bounds allow.
func checkHeader(h *sessionHeader) error {
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

// readTail reads n little-endian 8-byte words with io.ReadFull straight
// into the memory of the slice the restored model keeps, and turns them
// to this host's order in place (lattice.LittleEndianInPlace). The slice
// is spare when the caller has one (length n), else a new one of capacity
// limit (at least n: a dense tail's cohort's first size, so the storage
// can serve any later restore of that cohort). The new slice's first
// allocation holds at most tailCap words; past that it grows to at most
// twice what has arrived, never to what the header claims: a corrupt or
// crafted header can announce 2^30 states over ten bytes, and a server
// restoring evicted cohorts must fail on the short read, having committed
// at most the cap, not gigabytes, to a lie.
func readTail[T float64 | uint64](r io.Reader, n, limit uint64, spare []T) ([]T, error) {
	limit = max(limit, n)
	out := spare[:0]
	if spare == nil {
		out = make([]T, 0, min(limit, tailCap))
	}
	for uint64(len(out)) < n {
		if len(out) == cap(out) {
			out = append(make([]T, 0, min(limit, 2*uint64(cap(out)))), out...)
		}
		k := min(n, uint64(cap(out)))
		if _, err := io.ReadFull(r, lattice.WordBytes(out[len(out):k])); err != nil {
			return nil, err
		}
		out = out[:k]
	}
	lattice.LittleEndianInPlace(out)
	return out, nil
}
