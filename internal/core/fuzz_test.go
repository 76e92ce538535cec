package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// FuzzSessionCheckpointLoad feeds arbitrary byte streams to LoadSession.
// The session manager in internal/serve restores evicted cohorts from
// disk on demand, so a corrupt or truncated checkpoint must come back as
// an error — never a panic, a huge allocation, or a session that lies
// about its state. An accepted checkpoint must describe a coherent
// session (checkCoherent), and a load → save → load round trip must keep
// it. The corpus seeds every real checkpoint shape: dense idle, dense with
// a pending proposal, sparse-backed, a completed campaign and a traced
// session (EntropyTrace set in the header), plus truncations, bit flips,
// a bad magic, a NaN mass and a header listing a subject active twice.
func FuzzSessionCheckpointLoad(f *testing.F) {
	pool := engine.NewPool(1)
	defer pool.Close()

	checkpoint := func(s *Session) []byte {
		var buf bytes.Buffer
		if err := s.SaveSession(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	risks := workload.UniformRisks(8, 0.12)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	popu := workload.Draw(risks, rng.New(31))
	oracle := workload.NewOracle(popu, resp, rng.New(32))

	// Dense, mid-campaign, no outstanding proposal.
	dense, err := NewSession(pool, Config{Risks: risks, Response: resp})
	if err != nil {
		f.Fatal(err)
	}
	if err := dense.Step(oracle.Test); err != nil {
		f.Fatal(err)
	}
	idle := checkpoint(dense)
	f.Add(idle)

	// Same session with a proposal outstanding.
	if _, err := dense.ProposePools(); err != nil {
		f.Fatal(err)
	}
	pending := checkpoint(dense)
	f.Add(pending)
	dense.Close()

	// Sparse-backed session.
	sm, err := sparse.New(sparse.Config{Risks: risks, Response: resp, Eps: 1e-9})
	if err != nil {
		f.Fatal(err)
	}
	sp, err := NewSessionOn(posterior.FromSparse(sm), Config{Risks: risks, Response: resp})
	if err != nil {
		f.Fatal(err)
	}
	if err := sp.Step(oracle.Test); err != nil {
		f.Fatal(err)
	}
	f.Add(checkpoint(sp))
	sp.Close()

	// Completed campaign (no posterior payload).
	fin, err := NewSession(pool, Config{Risks: risks, Response: resp})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := fin.Run(oracle.Test); err != nil {
		f.Fatal(err)
	}
	f.Add(checkpoint(fin))

	// Truncations and corruptions of the structured seeds.
	f.Add(idle[:len(idle)/2])
	f.Add(pending[:len(pending)-3])
	flipped := append([]byte(nil), pending...)
	if len(flipped) > 40 {
		flipped[40] ^= 0x5a
	}
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 96))

	// A traced session mid-proposal: the header's EntropyTrace field set.
	traced, err := NewSession(pool, Config{Risks: risks, Response: resp, EntropyTrace: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := traced.ProposePools(); err != nil {
		f.Fatal(err)
	}
	f.Add(checkpoint(traced))
	traced.Close()

	// A stream that stops after the magic, a bad magic, a tail one byte
	// short, a NaN as the last state's mass, and a bit flip in the header.
	f.Add([]byte(checkpointMagic))
	f.Add(append([]byte("NOTACKPT"), idle[len(checkpointMagic):]...))
	f.Add(idle[:len(idle)-1])
	nan := append([]byte(nil), idle...)
	for i := len(nan) - 8; i < len(nan); i++ {
		nan[i] = 0xff
	}
	f.Add(nan)
	flipped = append([]byte(nil), idle...)
	flipped[20] ^= 0x5a
	f.Add(flipped)

	// A header listing one subject active twice (and another not at all).
	h, tail := splitCheckpoint(f, pending)
	h.Active[1] = h.Active[0]
	f.Add(joinCheckpoint(f, h, tail))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSession(bytes.NewReader(data), pool, nil, nil)
		if err != nil {
			return // rejection is the expected outcome for junk
		}
		if s == nil {
			t.Fatal("nil session with nil error")
		}
		defer s.Close()
		checkCoherent(t, s)
		var buf bytes.Buffer
		if err := s.SaveSession(&buf); err != nil {
			t.Fatalf("accepted checkpoint cannot re-save: %v", err)
		}
		back, err := LoadSession(&buf, pool, nil, nil)
		if err != nil {
			t.Fatalf("re-saved checkpoint does not load: %v", err)
		}
		defer back.Close()
		sameSession(t, back, s)
	})
}

// FuzzCheckpointTail holds a checkpoint's header fixed — a dense session's
// with a proposal outstanding, and a sparse session's — and fuzzes only
// the raw tail after it, so a mutation reaches the posterior decoder and
// the backend's validation instead of first breaking the gob header. Each
// input is tried behind both headers. An accepted tail must restore a
// coherent session whose marginals are probabilities, and a load → save →
// load round trip must keep it. The seeds are the real dense tail, an
// empty tail, a dense tail of NaNs (all bits set) and the real sparse
// tail.
func FuzzCheckpointTail(f *testing.F) {
	pool := engine.NewPool(1)
	defer pool.Close()

	var headers [][]byte
	var tails [][]byte
	for _, s := range []*Session{newDenseSession(f, pool, 6, true), newSparseSession(f, 6)} {
		h, tail := splitCheckpoint(f, saveSession(f, s))
		headers = append(headers, joinCheckpoint(f, h, nil))
		tails = append(tails, tail)
	}
	f.Add(tails[0])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, len(tails[0])))
	f.Add(tails[1])

	f.Fuzz(func(t *testing.T, tail []byte) {
		for _, header := range headers {
			raw := append(append([]byte(nil), header...), tail...)
			s, err := LoadSession(bytes.NewReader(raw), pool, nil, nil)
			if err != nil {
				continue // rejection is the expected outcome for junk
			}
			checkCoherent(t, s)
			for i, p := range s.marg {
				if !(p >= -1e-9 && p <= 1+1e-9) {
					t.Fatalf("accepted tail gives subject %d marginal %v", i, p)
				}
			}
			var buf bytes.Buffer
			if err := s.SaveSession(&buf); err != nil {
				t.Fatalf("accepted tail cannot re-save: %v", err)
			}
			back, err := LoadSession(&buf, pool, nil, nil)
			if err != nil {
				t.Fatalf("re-saved tail does not load: %v", err)
			}
			sameSession(t, back, s)
			back.Close()
			s.Close()
		}
	})
}

// checkCoherent fails unless every subject of an accepted session is
// classified or active exactly once — active ones unclassified, and
// while a posterior is present every unclassified one active — and
// Remaining counts the active subjects.
func checkCoherent(t *testing.T, s *Session) {
	t.Helper()
	if len(s.calls) == 0 {
		t.Fatal("accepted checkpoint with no subjects")
	}
	active := make(map[int]bool, len(s.active))
	for _, g := range s.active {
		if active[g] || s.calls[g].Status != StatusUnknown {
			t.Fatalf("subject %d active twice or active and called: active %v, calls %+v", g, s.active, s.calls)
		}
		active[g] = true
	}
	for i, c := range s.calls {
		if c.Subject != i || (s.model != nil && c.Status == StatusUnknown && !active[i]) {
			t.Fatalf("subject %d neither called nor active: active %v, calls %+v", i, s.active, s.calls)
		}
	}
	if s.Remaining() != len(s.active) {
		t.Fatalf("Remaining() = %d with %d subjects active", s.Remaining(), len(s.active))
	}
}

// sameSession fails unless got carries want's state: subjects, counters,
// log, outstanding proposal, and the posterior to 1e-12.
func sameSession(t *testing.T, got, want *Session) {
	t.Helper()
	// fmt's rendering treats a NaN a fuzzed header may carry as equal to
	// itself, which reflect.DeepEqual does not.
	for what, pair := range map[string][2]any{
		"active":  {got.active, want.active},
		"calls":   {got.calls, want.calls},
		"counts":  {[]int{got.stage, got.tests}, []int{want.stage, want.tests}},
		"entropy": {got.entropy, want.entropy},
		"log":     {got.log, want.log},
		"pending": {got.Outstanding(), want.Outstanding()},
	} {
		if g, w := fmt.Sprint(pair[0]), fmt.Sprint(pair[1]); g != w {
			t.Fatalf("%s after a round trip: %s, want %s", what, g, w)
		}
	}
	if (got.model == nil) != (want.model == nil) {
		t.Fatalf("posterior present %v after a round trip, want %v", got.model != nil, want.model != nil)
	}
	if want.model == nil {
		return
	}
	g, w := snapshotOf(t, got), snapshotOf(t, want)
	if g.Kind != w.Kind || fmt.Sprint(g.Risks) != fmt.Sprint(w.Risks) || g.Tests != w.Tests {
		t.Fatalf("posterior %s over %v after %d tests, want %s over %v after %d", g.Kind, g.Risks, g.Tests, w.Kind, w.Risks, w.Tests)
	}
	samePosterior(t, "round trip", g, w, 1e-12)
}
