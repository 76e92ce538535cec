package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestSessionCheckpointMidCampaign(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(10, 0.1)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	r := rng.New(606)
	popu := workload.Draw(risks, r)
	oracle := workload.NewOracle(popu, resp, r)

	sess, err := NewSession(pool, Config{Risks: risks, Response: resp, EntropyTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Run a few stages, checkpoint, then finish twice: once on the
	// original and once on the restored session. Outcomes after the
	// checkpoint must match, so both campaigns classify identically.
	for i := 0; i < 3 && !sess.Done(); i++ {
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sess.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// The oracle stream continues from here; clone its effect by giving
	// both continuations their own identical streams.
	finish := func(s *Session, seed uint64) *Result {
		rr := rng.New(seed)
		o := workload.NewOracle(popu, resp, rr)
		res, err := s.Run(o.Test)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	restored, err := LoadSession(bytes.NewReader(raw), pool, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stage() != sess.Stage() || restored.Tests() != sess.Tests() {
		t.Fatalf("counters: restored %d/%d vs original %d/%d",
			restored.Stage(), restored.Tests(), sess.Stage(), sess.Tests())
	}
	if restored.Remaining() != sess.Remaining() {
		t.Fatalf("remaining: %d vs %d", restored.Remaining(), sess.Remaining())
	}
	a := finish(sess, 777)
	b := finish(restored, 777)
	if a.Positives() != b.Positives() {
		t.Fatalf("classifications diverged: %v vs %v", a.Positives(), b.Positives())
	}
	if a.Tests != b.Tests || a.Stages != b.Stages {
		t.Fatalf("cost diverged: %d/%d vs %d/%d", a.Tests, a.Stages, b.Tests, b.Stages)
	}
	if len(a.Log) != len(b.Log) {
		t.Fatalf("logs diverged: %d vs %d records", len(a.Log), len(b.Log))
	}
}

func TestSessionCheckpointCompleted(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(6, 0.1)
	r := rng.New(5)
	popu := workload.Draw(risks, r)
	oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(oracle.Test); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSession(&buf, pool, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Done() {
		t.Fatal("restored completed session not done")
	}
	got := restored.Classifications()
	want := sess.Classifications()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("classification %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Stepping a done session is a no-op, not a crash.
	if err := restored.Step(oracle.Test); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSessionRejectsGarbage: a stream that is no checkpoint at all and
// a real checkpoint with a byte after its tail are both refused.
func TestLoadSessionRejectsGarbage(t *testing.T) {
	pool := newTestPool(t)
	raw := saveSession(t, newDenseSession(t, pool, 6, false))
	for name, data := range map[string][]byte{
		"text":     []byte("not a checkpoint"),
		"trailing": append(append([]byte(nil), raw...), 0),
	} {
		if _, err := LoadSession(bytes.NewReader(data), pool, nil, nil); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestLoadSessionRejectsBadMagic: a stream under another magic is refused
// by the magic it carries, and so is a real checkpoint's header and tail
// under another magic and a stream that stops inside the magic.
func TestLoadSessionRejectsBadMagic(t *testing.T) {
	pool := newTestPool(t)
	_, err := LoadSession(strings.NewReader("NOTACKPTxxxxxxxxxxxx"), pool, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `"NOTACKPT"`) {
		t.Fatalf("bad magic: %v, want it named", err)
	}
	raw := saveSession(t, newDenseSession(t, pool, 6, false))
	for name, data := range map[string][]byte{
		"real checkpoint": append([]byte("NOTACKPT"), raw[len(checkpointMagic):]...),
		"short":           []byte(checkpointMagic[:5]),
	} {
		if _, err := LoadSession(bytes.NewReader(data), pool, nil, nil); err == nil {
			t.Fatalf("%s under a bad magic accepted", name)
		}
	}
}

// TestLoadSessionRejectsTruncation: a checkpoint cut inside the magic or
// the header is refused.
func TestLoadSessionRejectsTruncation(t *testing.T) {
	pool := newTestPool(t)
	raw, header := freshCheckpoint(t, pool, 8)
	for _, cut := range []int{4, 12, header / 2, header - 1} {
		if _, err := LoadSession(bytes.NewReader(raw[:cut]), pool, nil, nil); err == nil {
			t.Fatalf("truncation at %d of a %d-byte magic and header accepted", cut, header)
		}
	}
}

// TestLoadSessionRejectsTruncatedLattice: a checkpoint cut inside its
// dense posterior tail — before its first word, after one word, halfway,
// one byte short — is refused, and so is one cut inside its trailer.
func TestLoadSessionRejectsTruncatedLattice(t *testing.T) {
	pool := newTestPool(t)
	raw, header := freshCheckpoint(t, pool, 8)
	tail := len(raw) - header - trailerLen
	for _, keep := range []int{0, 8, tail / 2, tail - 1, tail, tail + trailerLen - 1} {
		if _, err := LoadSession(bytes.NewReader(raw[:header+keep]), pool, nil, nil); err == nil {
			t.Fatalf("tail and trailer cut to %d of %d+%d bytes accepted", keep, tail, trailerLen)
		}
	}
}

// freshCheckpoint saves a dense n-subject session before its first stage,
// so its tail is the whole 2^n-state lattice, and returns the checkpoint
// with the length of its magic and header (what precedes the tail).
func freshCheckpoint(t *testing.T, pool *engine.Pool, n int) ([]byte, int) {
	t.Helper()
	sess, err := NewSession(pool, Config{Risks: workload.UniformRisks(n, 0.07), Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	raw := saveSession(t, sess)
	_, tail := splitCheckpoint(t, raw)
	if len(tail) != 8<<n {
		t.Fatalf("fresh %d-subject checkpoint has a %d-byte tail, want %d", n, len(tail), 8<<n)
	}
	return raw, len(raw) - len(tail) - trailerLen
}

// TestLoadSessionRejectsCorruptPosterior: the tail is validated where a
// model is built from it, so a NaN in a dense posterior or a negative
// sparse mass is refused, not resumed, even under a trailer that matches.
func TestLoadSessionRejectsCorruptPosterior(t *testing.T) {
	pool := newTestPool(t)
	h, dense := splitCheckpoint(t, saveSession(t, newDenseSession(t, pool, 6, true)))
	for i := len(dense) - 8; i < len(dense); i++ {
		dense[i] = 0xff // the last state's mass becomes a NaN
	}
	hs, sparse := splitCheckpoint(t, saveSession(t, newSparseSession(t, 6)))
	binary.LittleEndian.PutUint64(sparse[len(sparse)-8:], math.Float64bits(-0.5))
	for name, raw := range map[string][]byte{"dense NaN": joinCheckpoint(t, h, dense), "sparse negative": joinCheckpoint(t, hs, sparse)} {
		if _, err := LoadSession(bytes.NewReader(raw), pool, nil, nil); err == nil {
			t.Fatalf("%s mass accepted", name)
		}
	}
}

func TestLoadSessionStrategyMismatch(t *testing.T) {
	// A checkpoint recorded with lookahead > 1 must refuse a non-halving
	// strategy at restore, mirroring NewSession validation.
	pool := newTestPool(t)
	risks := workload.UniformRisks(6, 0.1)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}, Lookahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSession(&buf, pool, halving.Individual{}, nil); err == nil {
		t.Fatal("lookahead checkpoint accepted a non-halving strategy")
	}
}

// TestCheckpointCarriesEntropyTrace: a traced session saved while a
// proposal is outstanding resumes traced — the full trace of the
// interrupted campaign (runHeld, which traces) equals an uninterrupted
// one's. (That an untraced header resumes untraced is the next test.)
func TestCheckpointCarriesEntropyTrace(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.BetaRisks(10, 2, 6, rng.New(51))
	dense := heldBackends[0].spec
	want := runHeld(t, pool, dense, risks, 52, false, 0, 1)
	if want.Stages < 4 || len(want.EntropyTrace) < 4 {
		t.Fatalf("campaign too short to interrupt: %d stages, trace %v", want.Stages, want.EntropyTrace)
	}
	got := runHeld(t, pool, dense, risks, 52, false, 3, 1)
	if got.Stages != want.Stages || len(got.EntropyTrace) != len(want.EntropyTrace) {
		t.Fatalf("resumed campaign: %d stages, %d trace points; uninterrupted %d, %d",
			got.Stages, len(got.EntropyTrace), want.Stages, len(want.EntropyTrace))
	}
	for i, w := range want.EntropyTrace {
		if math.Abs(got.EntropyTrace[i]-w) > 1e-12 {
			t.Fatalf("entropy[%d] = %v resumed, %v uninterrupted", i, got.EntropyTrace[i], w)
		}
	}
}

// TestLoadSessionRefusesParentFormat: checkpoints in the retired
// gob-first layout (written by the build before the one-header layout: a
// v2 idle dense session and a v3 one with a proposal outstanding), in the
// gob-header layout (a v4 session with a proposal outstanding, written by
// the build before the binary header) and in the binary-header layout
// without a generation or trailer (a v5 session with a proposal
// outstanding) are refused with an error that names their layout, never
// mis-read.
func TestLoadSessionRefusesParentFormat(t *testing.T) {
	pool := newTestPool(t)
	for name, want := range map[string]string{
		"parent_v2_dense.ckpt":   "retired gob-first layout (versions 1–3)",
		"parent_v3_pending.ckpt": "retired gob-first layout (versions 1–3)",
		"parent_v4_pending.ckpt": "gob header (version 4)",
		"parent_v5_pending.ckpt": "version 5 (no pair generation, no CRC-32C trailer)",
	} {
		raw, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadSession(bytes.NewReader(raw), pool, nil, nil)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want %q named", name, err, want)
		}
	}
}

// TestSaveSessionIsDeterministic: two saves of the same session are the
// same bytes, on the dense backend with a proposal outstanding and on the
// sparse backend.
func TestSaveSessionIsDeterministic(t *testing.T) {
	pool := newTestPool(t)
	for _, s := range []*Session{newDenseSession(t, pool, 8, true), newSparseSession(t, 8)} {
		if a, b := saveSession(t, s), saveSession(t, s); !bytes.Equal(a, b) {
			t.Fatal("two saves of the same session differ")
		}
	}
}

// TestCheckpointRoundTripResponses: under every shipped assay model the
// restored posterior equals the saved one state for state, the response
// model and the posterior's test counter come back, and the restored
// session keeps absorbing.
func TestCheckpointRoundTripResponses(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08}
	for _, resp := range []dilution.Response{
		dilution.Ideal{},
		dilution.Binary{Sens: 0.9, Spec: 0.97},
		dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.3},
		dilution.DefaultCt(),
	} {
		oracle := workload.NewOracle(workload.Draw(risks, rng.New(9)), resp, rng.New(10))
		sess, err := NewSession(pool, Config{Risks: risks, Response: resp, MaxStages: 40})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSession(bytes.NewReader(saveSession(t, sess)), pool, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", resp.Name(), err)
		}
		want, got := snapshotOf(t, sess), snapshotOf(t, back)
		if got.Response.Name() != resp.Name() || got.Tests != want.Tests {
			t.Fatalf("%s: restored as %s after %d tests, saved after %d", resp.Name(), got.Response.Name(), got.Tests, want.Tests)
		}
		samePosterior(t, resp.Name(), got, want, 1e-15)
		if _, err := back.Run(oracle.Test); err != nil {
			t.Fatalf("%s: resumed campaign: %v", resp.Name(), err)
		}
		sess.Close()
	}
}

// TestCheckpointTailCrossesChunks: a tail the reader takes in more than
// one step round-trips intact — a 2^17-state dense posterior restored with
// no spare, whose first allocation holds tailCap states and grows as the
// rest arrives, into storage of exactly its cohort's size — as do a
// 2^14-state one restored into the saved session's closed storage and a
// sparse support.
func TestCheckpointTailCrossesChunks(t *testing.T) {
	pool := newTestPool(t)
	wide := newDenseSession(t, pool, 17, false)
	if 1<<17 <= tailCap {
		t.Fatalf("a 2^17-state tail fits the first allocation of %d states", tailCap)
	}
	for _, c := range []struct {
		s      *Session
		closed bool // restored after the session's Close, into its storage
	}{{wide, false}, {newDenseSession(t, pool, 14, false), true}, {newSparseSession(t, 14), false}} {
		raw, want := saveSession(t, c.s), snapshotOf(t, c.s)
		pool.DropSpare()
		if c.closed {
			c.s.Close()
		}
		back, err := LoadSession(bytes.NewReader(raw), pool, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		samePosterior(t, string(want.Kind), snapshotOf(t, back), want, 1e-15)
		if d := posterior.Lattice(back.model); d != nil {
			if got := cap(d.Posterior().Data()); got != len(want.Dense) {
				t.Fatalf("a %d-state tail was restored into storage of %d states", len(want.Dense), got)
			}
		}
		back.Close()
	}
}

// TestCheckpointLayout pins the layout on every backend a session runs
// on: after the magic and the binary header, what is left is exactly the
// raw tail — 8·2^N bytes for a dense or cluster-gathered posterior (idle
// or with a proposal outstanding), 16·|support| for a sparse one, and
// nothing once the campaign is complete.
func TestCheckpointLayout(t *testing.T) {
	pool := newTestPool(t)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	risks := workload.BetaRisks(10, 2, 6, rng.New(71))
	for _, b := range heldBackends {
		model, err := b.spec.Open(pool, risks, resp)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSessionOn(model, Config{})
		if err != nil {
			t.Fatal(err)
		}
		oracle := workload.NewOracle(workload.Draw(risks, rng.New(72)), resp, rng.New(73))
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
		tailBytes := func() int {
			snap := snapshotOf(t, sess)
			if snap.Kind == posterior.KindSparse {
				return 16 * len(snap.States)
			}
			return 8 << sess.Remaining()
		}
		check := func(shape string, want int) {
			t.Helper()
			_, tail := splitCheckpoint(t, saveSession(t, sess))
			if len(tail) != want {
				t.Fatalf("%s %s: %d bytes after the header, want %d", b.name, shape, len(tail), want)
			}
		}
		check("idle", tailBytes())
		if _, err := sess.ProposePools(); err != nil {
			t.Fatal(err)
		}
		check("pending", tailBytes())
		if _, err := sess.Run(oracle.Test); err != nil {
			t.Fatal(err)
		}
		check("completed", 0)
	}
}

// TestLoadSessionRejectsIncoherentHeader: a header that no session could
// have written is refused before it is resumed. The base is a 6-subject
// campaign with some subjects called and a proposal outstanding; each row
// rewrites one thing in its header.
func TestLoadSessionRejectsIncoherentHeader(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.02, 0.02, 0.5, 0.02, 0.3, 0.02}
	oracle := workload.NewOracle(workload.Draw(risks, rng.New(81)), dilution.Ideal{}, rng.New(82))
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for sess.Remaining() == len(risks) {
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.ProposePools(); err != nil || sess.Done() || sess.Remaining() < 2 {
		t.Fatalf("base campaign: done=%v, %d remaining, %v", sess.Done(), sess.Remaining(), err)
	}
	raw := saveSession(t, sess)
	if _, err := LoadSession(bytes.NewReader(raw), pool, nil, nil); err != nil {
		t.Fatalf("the unmodified base does not load: %v", err)
	}
	base, tail := splitCheckpoint(t, raw)
	called := -1 // a subject already classified
	for i, c := range base.Calls {
		if c.Status != StatusUnknown {
			called = i
		}
	}
	for _, c := range []struct {
		name   string
		mutate func(h *sessionHeader)
		tail   []byte
	}{
		{"duplicate active", func(h *sessionHeader) { h.Active[1] = h.Active[0] }, tail},
		{"active outside cohort", func(h *sessionHeader) { h.Active[0] = len(h.Calls) }, tail},
		{"active subject already called", func(h *sessionHeader) { h.Calls[h.Active[0]].Status = StatusNegative }, tail},
		{"unknown subject not active", func(h *sessionHeader) { h.Calls[called].Status = StatusUnknown }, tail},
		{"call for another subject", func(h *sessionHeader) { h.Calls[1].Subject = 0 }, tail},
		{"negative stage", func(h *sessionHeader) { h.Stage = -1 }, tail},
		{"negative tests", func(h *sessionHeader) { h.Tests = -1 }, tail},
		{"pending on stage 0", func(h *sessionHeader) { h.Stage = 0 }, tail},
		{"pending pool outside cohort", func(h *sessionHeader) { h.Pending[0] = bitvec.Mask(1) << len(h.Active) }, tail},
		{"empty pending pool", func(h *sessionHeader) { h.Pending[0] = 0 }, tail},
		{"completed with active subjects", func(h *sessionHeader) { h.Posterior, h.Pending = nil, nil }, nil},
		{"completed with a proposal", func(h *sessionHeader) { h.Posterior, h.Active = nil, nil }, nil},
		{"posterior over other subjects", func(h *sessionHeader) { h.Posterior.Risks = h.Posterior.Risks[1:] }, tail[:len(tail)/2]},
		{"no response model", func(h *sessionHeader) { h.Posterior.Response = nil }, tail},
		{"unknown backend", func(h *sessionHeader) { h.Posterior.Kind = "" }, tail},
		{"dense with a support", func(h *sessionHeader) { h.Posterior.Support = 1 }, tail},
		{"sparse without a support", func(h *sessionHeader) { h.Posterior.Kind = posterior.KindSparse }, tail},
	} {
		h, _ := splitCheckpoint(t, raw) // a fresh copy of the base header
		c.mutate(h)
		if _, err := LoadSession(bytes.NewReader(joinCheckpoint(t, h, c.tail)), pool, nil, nil); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if !reflect.DeepEqual(base.Active, sess.active) {
		t.Fatal("the table mutated the base header")
	}
}

// newDenseSession is a dense n-subject session after one stage, still open
// over its whole cohort, with a proposal outstanding if propose is set.
func newDenseSession(t testing.TB, pool *engine.Pool, n int, propose bool) *Session {
	t.Helper()
	risks := workload.UniformRisks(n, 0.2)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	sess, err := NewSession(pool, Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if err := sess.Step(workload.NewOracle(workload.Draw(risks, rng.New(1)), resp, rng.New(2)).Test); err != nil {
		t.Fatal(err)
	}
	if sess.Done() {
		t.Fatalf("a %d-subject session is done after one stage", n)
	}
	if propose {
		if _, err := sess.ProposePools(); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func newSparseSession(t testing.TB, n int) *Session {
	t.Helper()
	pool := newTestPool(t)
	risks := workload.UniformRisks(n, 0.07)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	model, err := posterior.Spec{Kind: posterior.KindSparse, Eps: 1e-12}.Open(pool, risks, resp)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSessionOn(model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func saveSession(t testing.TB, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func snapshotOf(t testing.TB, s *Session) *posterior.Snapshot {
	t.Helper()
	snap, err := s.model.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// samePosterior compares two snapshots' posteriors, each mass relative to
// the saved one.
func samePosterior(t testing.TB, what string, got, want *posterior.Snapshot, tol float64) {
	t.Helper()
	if !reflect.DeepEqual(got.States, want.States) || len(got.Dense) != len(want.Dense) || len(got.Mass) != len(want.Mass) {
		t.Fatalf("%s: restored support differs", what)
	}
	g, w := append(got.Dense, got.Mass...), append(want.Dense, want.Mass...)
	for i := range w {
		if math.Abs(g[i]-w[i]) > tol*w[i] {
			t.Fatalf("%s: mass %d restored as %v, saved %v", what, i, g[i], w[i])
		}
	}
}

// splitCheckpoint decodes a checkpoint's one binary header and returns it
// with every byte between it and the trailer, which must verify.
func splitCheckpoint(t testing.TB, raw []byte) (*sessionHeader, []byte) {
	t.Helper()
	if len(raw) < trailerLen || !bytes.Equal(stamp(raw[:len(raw)-trailerLen]), raw) {
		t.Fatalf("checkpoint of %d bytes does not end in its CRC-32C", len(raw))
	}
	raw = raw[:len(raw)-trailerLen]
	if !bytes.HasPrefix(raw, []byte(checkpointMagic)) {
		t.Fatalf("checkpoint starts %q", raw[:min(len(raw), len(checkpointMagic))])
	}
	rest := raw[len(checkpointMagic):]
	if len(rest) < headerPrefix {
		t.Fatalf("checkpoint stops %d bytes after its magic", len(rest))
	}
	n := int(binary.LittleEndian.Uint32(rest[1:]))
	if len(rest) < headerPrefix+n {
		t.Fatalf("a %d-byte header in %d bytes", n, len(rest)-headerPrefix)
	}
	h, err := decodeHeader(rest[0], rest[headerPrefix:headerPrefix+n])
	if err != nil {
		t.Fatal(err)
	}
	return h, rest[headerPrefix+n:]
}

// joinCheckpoint is splitCheckpoint's inverse: it writes a header, a tail
// and the trailer that matches them in the checkpoint layout, whatever
// they say.
func joinCheckpoint(t testing.TB, h *sessionHeader, tail []byte) []byte {
	t.Helper()
	return stamp(append(encodeHeader(t, h), tail...))
}

// encodeHeader writes the magic and h's version, length and record.
func encodeHeader(t testing.TB, h *sessionHeader) []byte {
	t.Helper()
	raw, err := appendHeader([]byte(checkpointMagic), h)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stamp returns b followed by its CRC-32C trailer.
func stamp(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(b), crc32.Checksum(b, castagnoli))
}

// TestSaveSessionIsARead: saving a session changes nothing it goes on to
// compute. A campaign saved after every stage reports, stage by stage,
// marginals bit-identical to the same campaign never saved, on the dense
// and the sparse backend (a dense save reads the lattice in place rather
// than settling its carried scale into the storage).
func TestSaveSessionIsARead(t *testing.T) {
	pool := newTestPool(t)
	resp := dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.3}
	for _, b := range heldBackends[:2] {
		for seed := uint64(1); seed <= 6; seed++ {
			risks := workload.BetaRisks(12, 2, 8, rng.New(90+seed))
			run := func(save bool) (marg [][]float64) {
				model, err := b.spec.Open(pool, risks, resp)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := NewSessionOn(model, Config{MaxStages: 60})
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				oracle := workload.NewOracle(workload.Draw(risks, rng.New(seed)), resp, rng.New(seed+100))
				for !sess.Done() {
					if err := sess.Step(oracle.Test); err != nil {
						t.Fatal(err)
					}
					marg = append(marg, slices.Clone(sess.marg))
					if save {
						if err := sess.SaveSession(io.Discard); err != nil {
							t.Fatal(err)
						}
					}
				}
				return marg
			}
			want, got := run(false), run(true)
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d stages saved, %d unsaved", b.name, seed, len(got), len(want))
			}
			for stage := range want {
				for i := range want[stage] {
					if math.Float64bits(got[stage][i]) != math.Float64bits(want[stage][i]) {
						t.Fatalf("%s seed %d stage %d: subject %d's marginal %v saved, %v unsaved",
							b.name, seed, stage+1, i, got[stage][i], want[stage][i])
					}
				}
			}
		}
	}
}

// TestUnscaledTailRestoresTwin: a dense tail is the lattice's stored mass
// with the carried scale not applied. A session saved while its scale is
// far from 1 — a stage of improbable positives absorbed, nothing settled —
// writes a tail whose words sum far from 1, and the session restored from
// it proposes the same pools as a never-saved twin stage after stage, with
// marginals within 1e-12, restored again after every stage.
func TestUnscaledTailRestoresTwin(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(12, 0.01)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.999}
	open := func() *Session {
		s, err := NewSession(pool, Config{Risks: risks, Response: resp})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// answer proposes a stage on s and absorbs lab's outcome for each pool,
	// returning the pools, or nil once s is done.
	answer := func(s *Session, lab func(bitvec.Mask) dilution.Outcome) []bitvec.Mask {
		props, err := s.ProposePools()
		if err != nil || props == nil {
			if err != nil {
				t.Fatal(err)
			}
			return nil
		}
		var pools []bitvec.Mask
		results := make([]TestResult, len(props))
		for i, p := range props {
			pools = append(pools, p.Pool)
			results[i] = TestResult{Stage: p.Stage, Index: p.Index, Outcome: lab(p.Pool)}
		}
		if err := s.AbsorbResults(results); err != nil {
			t.Fatal(err)
		}
		return pools
	}
	positive := func(bitvec.Mask) dilution.Outcome { return dilution.Positive }
	saved, twin := open(), open()
	defer func() { saved.Close() }()
	defer twin.Close()
	answer(saved, positive)
	answer(twin, positive)

	raw := saveSession(t, saved)
	_, tail := splitCheckpoint(t, raw)
	var sum float64
	for i := 0; i < len(tail); i += 8 {
		sum += math.Float64frombits(binary.LittleEndian.Uint64(tail[i:]))
	}
	if sum > 0.5 && sum < 2 {
		t.Fatalf("the tail's words sum to %v: the carried scale is not far from 1", sum)
	}
	lab := workload.NewOracle(workload.Draw(risks, rng.New(77)), resp, rng.New(78)).Test
	for stage := 1; ; stage++ {
		saved.Close()
		var err error
		if saved, err = LoadSession(bytes.NewReader(raw), pool, nil, nil); err != nil {
			t.Fatal(err)
		}
		if twin.Done() || saved.Done() {
			if !twin.Done() || !saved.Done() || stage < 3 {
				t.Fatalf("stage %d: restored session done %v, its twin %v; want both, after 3 stages at least", stage, saved.Done(), twin.Done())
			}
			return
		}
		got, err := saved.marginals()
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.marginals()
		if err != nil || len(got) != len(want) {
			t.Fatalf("stage %d: %d restored marginals, the twin's %d (%v)", stage, len(got), len(want), err)
		}
		for i, p := range want {
			if math.Abs(got[i]-p) > 1e-12 {
				t.Fatalf("stage %d subject %d: restored marginal %v, twin's %v", stage, i, got[i], p)
			}
		}
		wantPools := answer(twin, lab)
		if gotPools := answer(saved, lab); !reflect.DeepEqual(gotPools, wantPools) {
			t.Fatalf("stage %d: the restored session proposed %v, its twin %v", stage, gotPools, wantPools)
		}
		raw = saveSession(t, saved)
	}
}

// TestCheckpointHeaderRoundTrip: a header under each of the six dilution
// models decodes to what was written and re-encodes to its own bytes.
func TestCheckpointHeaderRoundTrip(t *testing.T) {
	pool := newTestPool(t)
	h, _ := splitCheckpoint(t, saveSession(t, newDenseSession(t, pool, 6, true)))
	for _, resp := range []dilution.Response{
		dilution.Ideal{},
		dilution.Binary{Sens: 0.9, Spec: 0.97},
		dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.3},
		dilution.Logistic{MaxSens: 0.97, Spec: 0.99, Alpha: 4, Beta: -2.5},
		dilution.Subsample{Q: 0.8, Spec: 0.995},
		dilution.DefaultCt(),
	} {
		h.Posterior.Response = resp
		raw := joinCheckpoint(t, h, nil)
		got, tail := splitCheckpoint(t, raw)
		if len(tail) != 0 || !reflect.DeepEqual(got, h) {
			t.Fatalf("%s: header read back as %+v (%d bytes left), want %+v", resp.Name(), got, len(tail), h)
		}
		if again := joinCheckpoint(t, got, nil); !bytes.Equal(again, raw) {
			t.Fatalf("%s: header re-encodes to\n%x, not\n%x", resp.Name(), again, raw)
		}
	}
}

// privateAssay is a response model outside the six a checkpoint names.
type privateAssay struct{ dilution.Binary }

// TestSaveSessionRefusesUnknownResponse: a session under a response model
// the header cannot name is refused at save, and the error names its type.
func TestSaveSessionRefusesUnknownResponse(t *testing.T) {
	pool := newTestPool(t)
	sess, err := NewSession(pool, Config{Risks: workload.UniformRisks(6, 0.1), Response: privateAssay{dilution.Binary{Sens: 0.9, Spec: 0.99}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.SaveSession(io.Discard); err == nil || !strings.Contains(err.Error(), "privateAssay") {
		t.Fatalf("save under a private response model: %v, want its type named", err)
	}
}

// TestLoadSessionRefusesNonCanonicalHeader: a header no writer makes is
// refused — an unknown response tag, a non-minimal varint, a count past
// the bytes left, bytes after the record — so an accepted header is the
// one encoding of its value.
func TestLoadSessionRefusesNonCanonicalHeader(t *testing.T) {
	pool := newTestPool(t)
	h, tail := splitCheckpoint(t, saveSession(t, newDenseSession(t, pool, 6, true)))
	h.Posterior.Response = dilution.Ideal{}
	ideal := encodeHeader(t, h)
	h.Posterior.Response = dilution.Binary{}
	start := len(checkpointMagic) + headerPrefix // the record's first byte: the generation, 0 in a stream save
	count := start + 1                           // the active list's count
	tag := start                                 // the response tag: the first record byte the two encodings differ in
	for encodeHeader(t, h)[tag] == ideal[tag] {
		tag++
	}
	if ideal[start] != 0 || ideal[count] >= 0x40 {
		t.Fatalf("generation %d and %d active subjects do not fit a byte each", ideal[start], ideal[count])
	}
	// rewrite replaces the record's byte at i with with, fixing up the
	// length and the trailer.
	rewrite := func(i int, with ...byte) []byte {
		raw := append(append(append([]byte(nil), ideal[:i]...), with...), ideal[i+1:]...)
		binary.LittleEndian.PutUint32(raw[len(checkpointMagic)+1:], uint32(len(raw)-start))
		return stamp(append(raw, tail...))
	}
	if _, err := LoadSession(bytes.NewReader(rewrite(start, ideal[start])), pool, nil, nil); err != nil {
		t.Fatalf("the unmodified base does not load: %v", err)
	}
	for name, raw := range map[string][]byte{
		"unknown response tag":      rewrite(tag, 7),
		"non-minimal varint":        rewrite(count, 0x80|ideal[count], 0),
		"count past the bytes left": rewrite(count, 0xff, 0x7f),
		"trailing byte":             rewrite(len(ideal)-1, ideal[len(ideal)-1], 0),
	} {
		if _, err := LoadSession(bytes.NewReader(raw), pool, nil, nil); err == nil || !strings.Contains(err.Error(), "decode session header") {
			t.Errorf("%s: %v, want the header refused", name, err)
		}
	}
}

// BenchmarkCheckpoint prices a dense session's checkpoint through the file
// system at N=14 and N=16: SavePair (the lattice's stored mass written
// with one Write, overwriting the pair's older slot in place) and LoadPair
// from the newest slot it knows, as a served cohort's restore reads it
// (one read into the restored lattice's storage, one validating pass).
// load_fresh drops the pool's spares before every load, so the tail is
// read into a new array; load_spare restores into the storage the previous
// iteration's Close released, as a served restore reads into the storage
// its eviction just freed. Run it with -benchmem: a save allocates no copy
// of the posterior, load_fresh one, and load_spare none.
func BenchmarkCheckpoint(b *testing.B) {
	pool := engine.NewPool(1)
	defer pool.Close()
	for _, n := range []int{14, 16} {
		sess := newDenseSession(b, pool, n, false)
		ckpt := &Pair{Path: filepath.Join(b.TempDir(), "session.ckpt")}
		b.Run(fmt.Sprintf("save_N%d", n), func(b *testing.B) {
			b.SetBytes(8 << n)
			for i := 0; i < b.N; i++ {
				if err := sess.SavePair(ckpt); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, arm := range []string{"fresh", "spare"} {
			b.Run(fmt.Sprintf("load_%s_N%d", arm, n), func(b *testing.B) {
				b.SetBytes(8 << n)
				for i := 0; i < b.N; i++ {
					if arm == "fresh" {
						pool.DropSpare()
					}
					back, err := LoadPair(ckpt, pool, nil, nil)
					if err != nil {
						b.Fatal(err)
					}
					back.Close()
				}
			})
		}
	}
}
