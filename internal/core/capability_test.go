package core

import (
	"bytes"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/workload"
)

// TestLookaheadRunsOnEveryBackend: every backend accepts Lookahead 2 at
// both doors into a session, NewSessionOn and LoadSession, and proposes two
// pools a stage. A cluster checkpoint carries the gathered posterior and
// restores dense. A header claiming more than MaxLookahead is refused.
func TestLookaheadRunsOnEveryBackend(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.1)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	for _, b := range heldBackends {
		t.Run(b.name, func(t *testing.T) {
			model, err := b.spec.Open(pool, risks, resp)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSessionOn(model, Config{Lookahead: 2})
			if err != nil {
				t.Fatalf("NewSessionOn with Lookahead 2: %v", err)
			}
			defer sess.Close()
			if pools, err := sess.ProposePools(); err != nil || len(pools) != 2 {
				t.Fatalf("%s proposed %v (%v), want two pools", b.spec.Kind, pools, err)
			}

			save := func(lookahead int) *bytes.Buffer {
				t.Helper()
				sess.cfg.Lookahead = lookahead // what a crafted header would claim
				var buf bytes.Buffer
				if err := sess.SaveSession(&buf); err != nil {
					t.Fatal(err)
				}
				return &buf
			}
			restored, err := LoadSession(save(2), pool, nil, nil)
			if err != nil {
				t.Fatalf("LoadSession with Lookahead 2: %v", err)
			}
			defer restored.Close()
			want := posterior.KindDense
			if b.spec.Kind == posterior.KindSparse {
				want = posterior.KindSparse
			}
			if k := restored.Model().Kind(); k != want {
				t.Fatalf("restored onto %s, want %s", k, want)
			}
			if pools := restored.Outstanding(); len(pools) != 2 {
				t.Fatalf("restored proposal %v, want two pools", pools)
			}
			if _, err := LoadSession(save(MaxLookahead+1), pool, nil, nil); err == nil {
				t.Fatal("LoadSession accepted a look-ahead above MaxLookahead")
			}
		})
	}
}

// TestLookaheadDepthOneIsSelectOn: through the branch reads, found under an
// instrumentation decorator, one pool of look-ahead is the plain halving
// choice on the same posterior.Model.
func TestLookaheadDepthOneIsSelectOn(t *testing.T) {
	pool := newTestPool(t)
	m, err := posterior.Spec{Obs: obs.NewRegistry()}.Open(pool, workload.UniformRisks(10, 0.12), dilution.Binary{Sens: 0.95, Spec: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Update(bitvec.FromIndices(0, 1, 2, 3), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	opts := halving.Options{MaxPool: 6}
	want, err := halving.SelectOn(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := halving.SelectLookahead(posterior.Branches(m), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Pool != want.Pool || got[0].NegMass != want.NegMass {
		t.Fatalf("depth-1 look-ahead chose %v, SelectOn %v", got, want)
	}
}
