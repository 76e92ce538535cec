package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/workload"
)

// TestLookaheadIsABackendCapability pins the capability rule at both doors
// into a session: a backend that cannot branch its posterior refuses
// Lookahead > 1 with an error naming it, from NewSessionOn and from
// LoadSession alike. A cluster checkpoint carries the gathered posterior
// and restores dense, so there the restored backend — which can branch —
// decides.
func TestLookaheadIsABackendCapability(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.1)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	for _, b := range heldBackends {
		canBranch := b.spec.Kind == posterior.KindDense
		restoresDense := b.spec.Kind != posterior.KindSparse
		t.Run(b.name, func(t *testing.T) {
			refused := func(door string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), string(b.spec.Kind)) {
					t.Fatalf("%s with Lookahead 2: %v, want an error naming the %s backend", door, err, b.spec.Kind)
				}
			}
			model, err := b.spec.Open(pool, risks, resp)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSessionOn(model, Config{Lookahead: 2})
			if !canBranch {
				refused("NewSessionOn", err)
				// The refused model is still the caller's; a session at
				// depth 1 takes it and writes the checkpoint to doctor.
				if sess, err = NewSessionOn(model, Config{}); err != nil {
					t.Fatal(err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			save := func(lookahead int) *bytes.Buffer {
				t.Helper()
				sess.cfg.Lookahead = lookahead // what a crafted header would claim
				var buf bytes.Buffer
				if err := sess.SaveSession(&buf); err != nil {
					t.Fatal(err)
				}
				return &buf
			}
			restored, err := LoadSession(save(2), pool, nil)
			if !restoresDense {
				refused("LoadSession", err)
			} else if err != nil {
				t.Fatal(err)
			} else if k := restored.Model().Kind(); k != posterior.KindDense {
				t.Fatalf("restored onto %s, want dense", k)
			}
			if _, err := LoadSession(save(MaxLookahead+1), pool, nil); err == nil {
				t.Fatal("LoadSession accepted a look-ahead above MaxLookahead")
			}
		})
	}
}

// TestLookaheadDepthOneIsSelectOn: through the capability interface, found
// under an instrumentation decorator, one pool of look-ahead is the plain
// halving choice on the same posterior.Model.
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
	b, err := posterior.LookaheadOf(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := halving.SelectLookahead(b, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Pool != want.Pool || got[0].NegMass != want.NegMass {
		t.Fatalf("depth-1 look-ahead chose %v, SelectOn %v", got, want)
	}
}
