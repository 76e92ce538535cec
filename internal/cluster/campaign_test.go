package cluster_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/workload"
)

// countConditions wraps a session's model to count the collapses it makes
// and how many of them were of the top lattice bit: on two executors the
// only collapses that break the even split, so the only ones that move
// states.
type countConditions struct {
	posterior.Model
	conditions, tops *int
}

func (c countConditions) Condition(subject int, positive bool) (posterior.Model, error) {
	top := subject == c.N()-1
	next, err := c.Model.Condition(subject, positive)
	if next == nil || err != nil {
		return next, err
	}
	*c.conditions++
	if top {
		*c.tops++
	}
	return countConditions{next, c.conditions, c.tops}, nil
}

// TestSessionCampaignRounds drives seeded two-executor session campaigns
// to convergence and counts the driver's rounds by op (each round is one
// RPC per executor). A classification is one round: every collapse answers
// its survivors' total and marginals, so no campaign sends a sum-where
// preflight (every call is a threshold crossing), a marginals round or a
// fetch; collapse rounds equal the conditions made, and load-shard rounds
// the conditions of the top bit, the rebalances.
func TestSessionCampaignRounds(t *testing.T) {
	const n, executors = 12, 2
	r := rng.New(4242)
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.02 + 0.2*r.Float64()
	}
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	for seed := uint64(1); seed <= 4; seed++ {
		reg := obs.NewRegistry()
		model, err := posterior.Spec{Kind: posterior.KindCluster, LocalExecutors: executors, ExecWorkers: 1, DialTimeout: 5 * time.Second, Obs: reg}.Open(nil, risks, resp)
		if err != nil {
			t.Fatal(err)
		}
		var conditions, tops int
		sess, err := core.NewSessionOn(countConditions{model, &conditions, &tops}, core.Config{})
		if err != nil {
			model.Close() //lint:allow errcheck teardown on a constructor failure path; the construction error wins
			t.Fatal(err)
		}
		oracle := workload.NewOracle(workload.Draw(risks, rng.New(seed)), resp, rng.New(seed+100))
		res, err := sess.Run(oracle.Test)
		sess.Close() //lint:allow errcheck test teardown; the run's result is what is checked
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: campaign did not converge", seed)
		}
		rounds := map[string]uint64{}
		for _, h := range reg.Snapshot().Histograms {
			if h.Name != "sbgt_cluster_rpc_seconds" {
				continue
			}
			for _, l := range h.Labels {
				if l.Key == "op" {
					rounds[l.Value] += h.Count
				}
			}
		}
		for op, want := range map[string]int{"sum-where": 0, "marginals": 0, "fetch": 0, "collapse": conditions, "load-shard": tops} {
			if got := rounds[op]; got != uint64(want*executors) {
				t.Errorf("seed %d: %d %s RPCs, want %d rounds × %d executors", seed, got, op, want, executors)
			}
		}
		if conditions != n-1 || tops == 0 {
			t.Errorf("seed %d: %d conditions (%d of the top bit), want %d and some", seed, conditions, tops, n-1)
		}
	}
}
