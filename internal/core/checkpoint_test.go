package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/latticeio"
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
	restored, err := LoadSession(bytes.NewReader(raw), pool, nil)
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
	restored, err := LoadSession(&buf, pool, nil)
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

func TestLoadSessionRejectsGarbage(t *testing.T) {
	pool := newTestPool(t)
	if _, err := LoadSession(strings.NewReader("not a checkpoint"), pool, nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadSessionRejectsTruncatedLattice(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.1)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := LoadSession(bytes.NewReader(raw[:len(raw)/2]), pool, nil); err == nil {
		t.Fatal("truncated checkpoint accepted")
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
	if _, err := LoadSession(&buf, pool, halving.Individual{}); err == nil {
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
	want := runHeld(t, pool, dense, risks, 52, false, 0)
	if want.Stages < 4 || len(want.EntropyTrace) < 4 {
		t.Fatalf("campaign too short to interrupt: %d stages, trace %v", want.Stages, want.EntropyTrace)
	}
	got := runHeld(t, pool, dense, risks, 52, false, 3)
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

// TestLoadSessionBeforeEntropyTraceField: a checkpoint in the format of
// the commits before Config.EntropyTrace — the same header without the
// field, when every session traced — loads as an untraced session: the
// entropy prefix it recorded is kept and the resumed stages add nothing.
func TestLoadSessionBeforeEntropyTraceField(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.12)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	oracle := workload.NewOracle(workload.Draw(risks, rng.New(61)), resp, rng.New(62))
	sess, err := NewSession(pool, Config{Risks: risks, Response: resp, EntropyTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Done() {
		t.Fatal("campaign finished before the checkpoint")
	}
	// The parent's sessionHeader, field for field (gob matches by name).
	type headerBefore struct {
		Version      int
		Backend      string
		Active       []int
		Calls        []Classification
		Stage        int
		Tests        int
		Entropy      []float64
		Log          []TestRecord
		Lookahead    int
		PosThreshold float64
		NegThreshold float64
		MaxStages    int
		Parts        int
		Done         bool
	}
	snap, err := sess.model.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	prefix := sess.Result().EntropyTrace
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&headerBefore{
		Version: sessionVersion, Backend: string(snap.Kind), Active: sess.active, Calls: sess.calls,
		Stage: sess.stage, Tests: sess.tests, Entropy: prefix, Log: sess.log,
		Lookahead: 1, PosThreshold: 0.99, NegThreshold: 0.01, MaxStages: 64,
	}); err != nil {
		t.Fatal(err)
	}
	if err := latticeio.SaveRaw(&buf, snap.Risks, snap.Response, snap.Tests, snap.Dense); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSession(&buf, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.cfg.EntropyTrace {
		t.Fatal("a checkpoint without the field loaded as traced")
	}
	res, err := restored.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 3 || res.Stages <= 2 {
		t.Fatalf("recorded prefix %v, resumed campaign ended at stage %d", prefix, res.Stages)
	}
	if len(res.EntropyTrace) != len(prefix) {
		t.Fatalf("resumed trace %v, recorded prefix %v", res.EntropyTrace, prefix)
	}
	for i := range prefix {
		if res.EntropyTrace[i] != prefix[i] {
			t.Fatalf("prefix[%d] = %v after the resume, recorded %v", i, res.EntropyTrace[i], prefix[i])
		}
	}
}
