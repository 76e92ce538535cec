package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/workload"
)

// freshMarginals is the reference arm of the differential tests: it
// ignores the posterior view the session hands the strategy (whose
// Marginals are the held ones) and selects on the session's raw model, so
// every selection re-reads the marginals from the lattice the way sessions
// did before they held them.
type freshMarginals struct {
	inner halving.Strategy
	sess  **Session
}

func (f freshMarginals) Next(halving.Posterior) (bitvec.Mask, error) {
	return f.inner.Next((*f.sess).model) // called under the session lock
}
func (f freshMarginals) Name() string { return f.inner.Name() }

// heldBackends opens the same cohort on each backend the session runs on.
var heldBackends = []struct {
	name string
	spec posterior.Spec
}{
	{"dense", posterior.Spec{Kind: posterior.KindDense}},
	{"sparse", posterior.Spec{Kind: posterior.KindSparse, Eps: 1e-12}},
	{"cluster", posterior.Spec{Kind: posterior.KindCluster, LocalExecutors: 2, ExecWorkers: 1, DialTimeout: 5 * time.Second}},
}

// runHeld drives one seeded campaign through propose/absorb, selecting
// lookahead pools a stage. With reference set, selection re-reads
// marginals: through freshMarginals at depth 1, and at depth 2 by dropping
// the session's held vector before each selection. With reloadAt > 0, the
// session is saved and restored while that stage's proposal is
// outstanding, and the campaign continues on the restored session.
func runHeld(t *testing.T, pool *engine.Pool, spec posterior.Spec, risks []float64, seed uint64, reference bool, reloadAt, lookahead int) *Result {
	t.Helper()
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	oracle := workload.NewOracle(workload.Draw(risks, rng.New(seed)), resp, rng.New(seed+1))
	model, err := spec.Open(pool, risks, resp)
	if err != nil {
		t.Fatal(err)
	}
	var sess *Session
	var strategy halving.Strategy = halving.Halving{Opts: halving.Options{MaxPool: 32}}
	if reference && lookahead <= 1 {
		strategy = freshMarginals{inner: strategy, sess: &sess}
	}
	if sess, err = NewSessionOn(model, Config{Strategy: strategy, Lookahead: lookahead, EntropyTrace: true}); err != nil {
		t.Fatal(err)
	}
	for {
		if reference && lookahead > 1 {
			sess.marg = nil
		}
		pools, err := sess.ProposePools()
		if err != nil {
			t.Fatal(err)
		}
		if pools == nil {
			if res := sess.Result(); res.Stages >= reloadAt {
				return res
			}
			t.Fatalf("campaign ended before stage %d, where the restore was due", reloadAt)
		}
		if pools[0].Stage == reloadAt {
			var buf bytes.Buffer
			if err := sess.SaveSession(&buf); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if sess, err = LoadSession(&buf, pool, strategy, nil); err != nil {
				t.Fatal(err)
			}
			if got := sess.Outstanding(); !reflect.DeepEqual(got, pools) {
				t.Fatalf("restored proposal %v, want %v", got, pools)
			}
		}
		results := make([]TestResult, len(pools))
		for i, p := range pools {
			results[i] = TestResult{Stage: p.Stage, Index: p.Index, Outcome: oracle.Test(p.Pool)}
		}
		if err := sess.AbsorbResults(results); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeldMarginalsMatchFreshSelection: serving the selection the
// marginals the session already holds must not change a campaign. On each
// backend, one pool a stage and two (look-ahead), with and without a
// save/restore while a proposal is outstanding, the pool sequence, the
// calls and the counters equal those of a session that re-reads marginals
// at every selection — and the look-ahead pool sequence is the dense
// backend's on every backend.
func TestHeldMarginalsMatchFreshSelection(t *testing.T) {
	pool := newTestPool(t)
	denseLog := map[[3]uint64][]TestRecord{}
	for _, b := range heldBackends {
		for seed := uint64(1); seed <= 3; seed++ {
			risks := workload.BetaRisks(10, 2, 6, rng.New(40+seed))
			for _, arm := range [][2]int{{0, 1}, {2, 1}, {0, 2}, {2, 2}} {
				reloadAt, lookahead := arm[0], arm[1]
				got := runHeld(t, pool, b.spec, risks, seed, false, reloadAt, lookahead)
				want := runHeld(t, pool, b.spec, risks, seed, true, reloadAt, lookahead)
				if !reflect.DeepEqual(got.Log, want.Log) {
					t.Fatalf("%s seed %d reload %d lookahead %d: pool sequence diverged:\n%v\n%v", b.name, seed, reloadAt, lookahead, got.Log, want.Log)
				}
				if lookahead > 1 {
					key := [3]uint64{seed, uint64(reloadAt), uint64(lookahead)}
					if b.spec.Kind == posterior.KindDense {
						denseLog[key] = got.Log
					} else if !reflect.DeepEqual(got.Log, denseLog[key]) {
						t.Fatalf("%s seed %d reload %d lookahead %d: pool sequence differs from dense:\n%v\n%v", b.name, seed, reloadAt, lookahead, got.Log, denseLog[key])
					}
				}
				if got.Tests != want.Tests || got.Stages != want.Stages {
					t.Fatalf("%s seed %d reload %d lookahead %d: %d tests/%d stages, reference %d/%d",
						b.name, seed, reloadAt, lookahead, got.Tests, got.Stages, want.Tests, want.Stages)
				}
				for i, c := range got.Classifications {
					w := want.Classifications[i]
					if c.Status != w.Status || c.Stage != w.Stage || c.Forced != w.Forced || math.Abs(c.Marginal-w.Marginal) > 1e-12 {
						t.Fatalf("%s seed %d reload %d: subject %d called %+v, reference %+v", b.name, seed, reloadAt, i, c, w)
					}
				}
				if len(got.EntropyTrace) != len(want.EntropyTrace) {
					t.Fatalf("%s seed %d reload %d: %d entropy points, reference %d",
						b.name, seed, reloadAt, len(got.EntropyTrace), len(want.EntropyTrace))
				}
				for i := range got.EntropyTrace {
					if math.Abs(got.EntropyTrace[i]-want.EntropyTrace[i]) > 1e-12 {
						t.Fatalf("%s seed %d reload %d: entropy[%d] %v, reference %v",
							b.name, seed, reloadAt, i, got.EntropyTrace[i], want.EntropyTrace[i])
					}
				}
			}
		}
	}
}

// opCounts tallies the posterior calls a session makes.
type opCounts struct {
	update, marginals, negMasses, prefix, entropy, summary, condition int
}

// countingModel decorates a posterior with call counters shared across
// the models Condition returns. failUpdate makes the next Update fail
// without touching the posterior.
type countingModel struct {
	posterior.Model
	c          *opCounts
	failUpdate *bool
}

func (w countingModel) Unwrap() posterior.Model { return w.Model }

func (w countingModel) Update(pool bitvec.Mask, y dilution.Outcome) error {
	w.c.update++
	if *w.failUpdate {
		*w.failUpdate = false
		return errors.New("injected update failure")
	}
	return w.Model.Update(pool, y)
}

func (w countingModel) Marginals() ([]float64, error) {
	w.c.marginals++
	return w.Model.Marginals()
}

func (w countingModel) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	w.c.negMasses++
	return w.Model.NegMasses(cands)
}

func (w countingModel) PrefixNegMasses(order []int) ([]float64, error) {
	w.c.prefix++
	return w.Model.PrefixNegMasses(order)
}

func (w countingModel) Entropy() (float64, error) {
	w.c.entropy++
	return w.Model.Entropy()
}

func (w countingModel) Summary() (*posterior.Summary, error) {
	w.c.summary++
	return w.Model.Summary()
}

func (w countingModel) Condition(subject int, positive bool) (posterior.Model, error) {
	w.c.condition++
	next, err := w.Model.Condition(subject, positive)
	if err != nil || next == nil {
		return nil, err
	}
	return countingModel{Model: next, c: w.c, failUpdate: w.failUpdate}, nil
}

// TestStagePassCounts pins what a stage costs in posterior calls: the
// opening digest is the only Summary (which a fresh model answers from its
// risks, and which carries the prior's entropy for a traced session);
// selection makes no Marginals call and one prefix scan; absorbing makes
// one Update per pool and one Marginals call per classify iteration. No
// Entropy call is made at all unless the session traces it, and then one
// per settled stage. A failed Update leaves no marginals held, and the next
// selection reads them once.
func TestStagePassCounts(t *testing.T) {
	for _, traced := range []bool{false, true} {
		stagePassCounts(t, traced)
	}
}

func stagePassCounts(t *testing.T, traced bool) {
	entropy := 0 // Entropy calls per settled stage, and trace points per digest
	if traced {
		entropy = 1
	}
	pool := newTestPool(t)
	risks := workload.BetaRisks(10, 1.2, 9, rng.New(7))
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	oracle := workload.NewOracle(workload.Draw(risks, rng.New(8)), resp, rng.New(9))
	dense, err := posterior.Spec{}.Open(pool, risks, resp)
	if err != nil {
		t.Fatal(err)
	}
	var c opCounts
	failUpdate := false
	sess, err := NewSessionOn(countingModel{Model: dense, c: &c, failUpdate: &failUpdate}, Config{EntropyTrace: traced})
	if err != nil {
		t.Fatal(err)
	}
	if want := (opCounts{summary: 1}); c != want {
		t.Fatalf("traced=%v: construction made %+v, want %+v", traced, c, want)
	}
	lab := func(pools []Pool) []TestResult {
		results := make([]TestResult, len(pools))
		for i, p := range pools {
			results[i] = TestResult{Stage: p.Stage, Index: p.Index, Outcome: oracle.Test(p.Pool)}
		}
		return results
	}
	for {
		c = opCounts{}
		pools, err := sess.ProposePools()
		if err != nil {
			t.Fatal(err)
		}
		if pools == nil {
			break
		}
		if want := (opCounts{prefix: 1}); c != want {
			t.Fatalf("stage %d: selection made %+v, want %+v", pools[0].Stage, c, want)
		}
		if pools[0].Stage == 3 {
			// A failed Update consumes the proposal and empties the cache;
			// the next selection falls back to one fresh Marginals call.
			failUpdate = true
			if err := sess.AbsorbResults(lab(pools)); err == nil {
				t.Fatal("injected update failure was swallowed")
			}
			if sess.marg != nil {
				t.Fatal("marginals still held after a failed update")
			}
			c = opCounts{}
			if pools, err = sess.ProposePools(); err != nil || pools == nil {
				t.Fatalf("selection after a failed update: %v %v", pools, err)
			}
			if want := (opCounts{marginals: 1, prefix: 1}); c != want {
				t.Fatalf("selection after a failed update made %+v, want %+v", c, want)
			}
			if sess.marg == nil {
				t.Fatal("fallback marginals were not kept")
			}
		}
		results := lab(pools)
		c = opCounts{}
		before := sess.Remaining()
		if err := sess.AbsorbResults(results); err != nil {
			t.Fatal(err)
		}
		classified := before - sess.Remaining()
		want := opCounts{update: len(pools), marginals: classified, condition: classified}
		if !sess.Done() {
			want.marginals++ // the pass that finds no crossing
			want.entropy = entropy
		} else {
			want.condition-- // the last subject closes the model instead
		}
		if c != want {
			t.Fatalf("traced=%v stage %d (%d classified): absorb made %+v, want %+v", traced, pools[0].Stage, classified, c, want)
		}
	}
	if got, want := len(sess.Result().EntropyTrace), entropy*(sess.Stage()-1); got != want {
		// One point for the prior and one per settled stage; the stage whose
		// update failed and the one that finished the cohort add none.
		t.Fatalf("traced=%v: %d entropy points after %d stages, want %d", traced, got, sess.Stage(), want)
	}
	if !sess.Done() || sess.Stage() <= 3 {
		t.Fatalf("campaign done=%v after %d stages; the update failure is injected at stage 3", sess.Done(), sess.Stage())
	}
}
