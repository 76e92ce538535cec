package core

import (
	"bytes"
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
// about its state. The corpus seeds every real checkpoint shape: dense
// idle (v2), dense with a pending proposal (v3), sparse-backed, a
// completed campaign and a traced session (EntropyTrace set in the
// header), plus truncations and bit flips.
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

	// Dense, mid-campaign, no outstanding proposal (version 2).
	dense, err := NewSession(pool, Config{Risks: risks, Response: resp})
	if err != nil {
		f.Fatal(err)
	}
	if err := dense.Step(oracle.Test); err != nil {
		f.Fatal(err)
	}
	idle := checkpoint(dense)
	f.Add(idle)

	// Same session with a proposal outstanding (version 3).
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

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSession(bytes.NewReader(data), pool, nil)
		if err != nil {
			return // rejection is the expected outcome for junk
		}
		if s == nil {
			t.Fatal("nil session with nil error")
		}
		// An accepted checkpoint must describe a coherent session: every
		// subject classified or active, and a re-save must succeed.
		if len(s.Classifications()) == 0 {
			t.Fatal("accepted checkpoint with no subjects")
		}
		var buf bytes.Buffer
		if err := s.SaveSession(&buf); err != nil {
			t.Fatalf("accepted checkpoint cannot re-save: %v", err)
		}
		s.Close()
	})
}
