package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/workload"
)

// stageTrace is what one stage of a campaign shows: the pools proposed and
// the marginals after their results were absorbed (nil once every subject
// is called).
type stageTrace struct {
	pools []bitvec.Mask
	marg  []float64
}

// recycledCampaign drives one seeded N=14 hyperbolic campaign on pool
// through propose/absorb and returns every stage's trace. With reload set,
// the session is saved, closed and restored after every stage, so a
// restore finds the closed session's storage on the pool when it fits;
// with fresh also set, the spare is dropped before each restore, so every
// restore reads into a new array.
func recycledCampaign(t *testing.T, pool *engine.Pool, reload, fresh bool) []stageTrace {
	t.Helper()
	risks := workload.BetaRisks(14, 1, 12, rng.New(40))
	resp := dilution.Hyperbolic{MaxSens: 0.98, Spec: 0.995, D: 0.25}
	oracle := workload.NewOracle(workload.Draw(risks, rng.New(41)), resp, rng.New(42))
	sess, err := NewSession(pool, Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sess.Close() }()
	var trace []stageTrace
	for {
		pools, err := sess.ProposePools()
		if err != nil {
			t.Fatal(err)
		}
		if pools == nil {
			return trace
		}
		st := stageTrace{}
		results := make([]TestResult, len(pools))
		for i, p := range pools {
			st.pools = append(st.pools, p.Pool)
			results[i] = TestResult{Stage: p.Stage, Index: p.Index, Outcome: oracle.Test(p.Pool)}
		}
		if err := sess.AbsorbResults(results); err != nil {
			t.Fatal(err)
		}
		if m := sess.Model(); m != nil {
			if st.marg, err = m.Marginals(); err != nil {
				t.Fatal(err)
			}
		}
		trace = append(trace, st)
		if reload {
			var buf bytes.Buffer
			if err := sess.SaveSession(&buf); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if fresh {
				pool.DropSpare()
			}
			if sess, err = LoadSession(&buf, pool, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecycledStorageBitIdentical: a campaign whose lattice is the storage
// an earlier campaign closed on the pool, dirty with that campaign's mass,
// proposes the same pools and holds the same marginals, bit for bit, as on
// a fresh pool; so does a campaign saved and restored after every stage,
// whose restores read into the storage the session before closed,
// against the same campaign restored into new arrays each time.
func TestRecycledStorageBitIdentical(t *testing.T) {
	newPool := func() *engine.Pool {
		p := engine.NewPool(2)
		t.Cleanup(p.Close)
		return p
	}
	want := recycledCampaign(t, newPool(), false, false)
	if len(want) < 3 {
		t.Fatalf("the campaign ran %d stages; too short to test", len(want))
	}
	shared := newPool()
	for run := range 2 {
		if got := recycledCampaign(t, shared, false, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on one pool differs from a fresh pool's campaign", run)
		}
	}
	// A restore folds the carried scale into the stored states, so a
	// restored campaign's marginals may differ from an unrestored one's in
	// the last bits; the recycled restores are held to the fresh ones.
	wantReload := recycledCampaign(t, newPool(), true, true)
	fits, last := 0, 14 // restores that find the closed session's storage: no call since the last open
	for _, st := range wantReload {
		if len(st.marg) == last {
			fits++
		}
		last = len(st.marg)
	}
	if fits < 2 {
		t.Fatalf("only %d restores find a spare of their size", fits)
	}
	if got := recycledCampaign(t, newPool(), true, false); !reflect.DeepEqual(got, wantReload) {
		t.Fatal("restores into recycled storage differ from restores into new arrays")
	}
	if len(wantReload) != len(want) {
		t.Fatalf("restored campaign ran %d stages, unrestored %d", len(wantReload), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(wantReload[i].pools, want[i].pools) || len(wantReload[i].marg) != len(want[i].marg) {
			t.Fatalf("stage %d: restored campaign proposed %v, unrestored %v", i+1, wantReload[i].pools, want[i].pools)
		}
		for j, m := range want[i].marg {
			if math.Abs(wantReload[i].marg[j]-m) > 1e-12 {
				t.Fatalf("stage %d subject %d: restored marginal %v, unrestored %v", i+1, j, wantReload[i].marg[j], m)
			}
		}
	}
}
