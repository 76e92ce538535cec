package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// spanShape reduces a tracer's buffer to a structural signature: one
// "parent>child" edge per span, sorted. Durations and IDs differ between
// runs; the tree (names and nesting) must not.
func spanShape(t *testing.T, tr *obs.Tracer) []string {
	t.Helper()
	recs, _ := tr.Snapshot()
	names := map[uint64]string{}
	for _, r := range recs {
		names[r.ID] = r.Name
	}
	var edges []string
	for _, r := range recs {
		parent := "root"
		if p, ok := names[r.ParentID]; ok {
			parent = p
		}
		edges = append(edges, parent+">"+r.Name)
	}
	sort.Strings(edges)
	return edges
}

// driveProposeAbsorb runs a campaign through the explicit state machine,
// the way a service with out-of-band lab results would.
func driveProposeAbsorb(t *testing.T, sess *Session, test TestFunc) *Result {
	t.Helper()
	for {
		pools, err := sess.ProposePools()
		if err != nil {
			t.Fatal(err)
		}
		if pools == nil {
			break
		}
		// Re-asking must hand back the same proposal, not a new stage.
		again, err := sess.ProposePools()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pools, again) {
			t.Fatalf("re-proposal diverged: %v vs %v", pools, again)
		}
		results := make([]TestResult, 0, len(pools))
		for _, p := range pools {
			results = append(results, TestResult{Stage: p.Stage, Index: p.Index, Outcome: test(p.Pool)})
		}
		// Deliver in reverse order: absorption must match on (Stage, Index),
		// not arrival order.
		for i, j := 0, len(results)-1; i < j; i, j = i+1, j-1 {
			results[i], results[j] = results[j], results[i]
		}
		if err := sess.AbsorbResults(results); err != nil {
			t.Fatal(err)
		}
	}
	return sess.Result()
}

func TestProposeAbsorbMatchesRun(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(12, 0.1)
	resp := dilution.Hyperbolic{MaxSens: 0.97, Spec: 0.995, D: 0.25}
	for _, lookahead := range []int{1, 3} {
		popu := workload.Draw(risks, rng.New(91))

		run := func(drive func(*testing.T, *Session, TestFunc) *Result) (*Result, []string) {
			tr := obs.NewTracer(1 << 14)
			oracle := workload.NewOracle(popu, resp, rng.New(92))
			sess, err := NewSession(pool, Config{Risks: risks, Response: resp, Lookahead: lookahead, Tracer: tr, EntropyTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			res := drive(t, sess, oracle.Test)
			if !sess.Done() {
				t.Fatal("campaign did not complete")
			}
			return res, spanShape(t, tr)
		}

		a, aspans := run(func(t *testing.T, s *Session, test TestFunc) *Result {
			res, err := s.Run(test)
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		b, bspans := run(driveProposeAbsorb)

		if !reflect.DeepEqual(a.Classifications, b.Classifications) {
			t.Fatalf("lookahead=%d: classifications diverged:\n%v\n%v", lookahead, a.Classifications, b.Classifications)
		}
		if a.Tests != b.Tests || a.Stages != b.Stages || a.Converged != b.Converged {
			t.Fatalf("lookahead=%d: counters diverged: %d/%d/%v vs %d/%d/%v",
				lookahead, a.Tests, a.Stages, a.Converged, b.Tests, b.Stages, b.Converged)
		}
		if !reflect.DeepEqual(a.EntropyTrace, b.EntropyTrace) {
			t.Fatalf("lookahead=%d: entropy traces diverged:\n%v\n%v", lookahead, a.EntropyTrace, b.EntropyTrace)
		}
		if !reflect.DeepEqual(a.Log, b.Log) {
			t.Fatalf("lookahead=%d: test logs diverged", lookahead)
		}
		if len(a.StageTimings) != len(b.StageTimings) {
			t.Fatalf("lookahead=%d: %d vs %d stage timings", lookahead, len(a.StageTimings), len(b.StageTimings))
		}
		for i := range a.StageTimings {
			if a.StageTimings[i].Stage != b.StageTimings[i].Stage {
				t.Fatalf("lookahead=%d: timing %d stage %d vs %d",
					lookahead, i, a.StageTimings[i].Stage, b.StageTimings[i].Stage)
			}
		}
		// The trace trees must be structurally identical — same span names
		// under the same parents — except the propose/absorb driver runs its
		// tests out of band, so no "test" spans appear under its stages.
		filtered := make([]string, 0, len(aspans))
		for _, e := range aspans {
			if e != "stage>test" {
				filtered = append(filtered, e)
			}
		}
		if !reflect.DeepEqual(filtered, bspans) {
			t.Fatalf("lookahead=%d: span trees diverged:\n%v\n%v", lookahead, filtered, bspans)
		}
	}
}

func TestAbsorbValidation(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.1)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Absorbing before proposing is the no-proposal error.
	if err := sess.AbsorbResults([]TestResult{{Stage: 1, Index: 0}}); err != ErrNoProposal {
		t.Fatalf("pre-proposal absorb: %v", err)
	}
	if sess.Outstanding() != nil {
		t.Fatal("idle session reports an outstanding proposal")
	}
	pools, err := sess.ProposePools()
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 1 || pools[0].Stage != 1 || pools[0].Index != 0 || pools[0].Pool == 0 {
		t.Fatalf("unexpected proposal %v", pools)
	}
	if got := sess.Outstanding(); !reflect.DeepEqual(got, pools) {
		t.Fatalf("Outstanding %v != proposal %v", got, pools)
	}

	bad := []struct {
		name    string
		results []TestResult
	}{
		{"empty batch", nil},
		{"wrong stage", []TestResult{{Stage: 2, Index: 0, Outcome: dilution.Positive}}},
		{"index out of range", []TestResult{{Stage: 1, Index: 1, Outcome: dilution.Positive}}},
		{"negative index", []TestResult{{Stage: 1, Index: -1, Outcome: dilution.Positive}}},
		{"extra result", []TestResult{{Stage: 1, Index: 0}, {Stage: 1, Index: 0}}},
	}
	for _, c := range bad {
		if err := sess.AbsorbResults(c.results); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		// Rejected batches must not consume the proposal.
		if sess.Outstanding() == nil {
			t.Fatalf("%s: proposal consumed by a rejected batch", c.name)
		}
		if sess.Tests() != 0 {
			t.Fatalf("%s: rejected batch absorbed a test", c.name)
		}
	}

	// The valid batch lands, and a duplicate submission cannot land twice.
	if err := sess.AbsorbResults([]TestResult{{Stage: 1, Index: 0, Outcome: dilution.Negative}}); err != nil {
		t.Fatal(err)
	}
	if sess.Tests() != 1 {
		t.Fatalf("tests = %d after one absorb", sess.Tests())
	}
	if !sess.Done() {
		if err := sess.AbsorbResults([]TestResult{{Stage: 1, Index: 0, Outcome: dilution.Negative}}); err != ErrNoProposal {
			t.Fatalf("duplicate absorb: %v", err)
		}
	}
}

// failingStrategy errors on every selection, driving Step's failure path.
type failingStrategy struct{}

func (failingStrategy) Next(halving.Posterior) (bitvec.Mask, error) {
	return 0, fmt.Errorf("deliberate selection failure")
}
func (failingStrategy) Name() string { return "failing" }

func TestCloseConcurrentWithFailedStep(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(6, 0.1)
	for trial := 0; trial < 8; trial++ {
		sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}, Strategy: failingStrategy{}})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		// One goroutine drives failing Steps; several race Close against it —
		// the session-manager eviction/drain shape.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				//lint:allow errcheck the error (selection failure or closed session) is the point
				_ = sess.Step(func(bitvec.Mask) dilution.Outcome { return dilution.Negative })
			}
		}()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sess.Close(); err != nil {
					t.Errorf("concurrent Close: %v", err)
				}
			}()
		}
		wg.Wait()
		if !sess.Done() {
			t.Fatal("session survived Close")
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("re-Close: %v", err)
		}
		// A closed session ignores further driving.
		if err := sess.Step(func(bitvec.Mask) dilution.Outcome { return dilution.Negative }); err != nil {
			t.Fatalf("Step after Close: %v", err)
		}
	}
}

func TestCloseDuringLabRoundTrip(t *testing.T) {
	// Close fires between ProposePools and AbsorbResults — the proposal is
	// abandoned and the late results are dropped, not absorbed into a
	// closed model.
	pool := newTestPool(t)
	risks := workload.UniformRisks(6, 0.1)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	pools, err := sess.ProposePools()
	if err != nil || len(pools) == 0 {
		t.Fatalf("propose: %v %v", pools, err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	results := []TestResult{{Stage: pools[0].Stage, Index: pools[0].Index, Outcome: dilution.Positive}}
	if err := sess.AbsorbResults(results); err != nil {
		t.Fatalf("late absorb on closed session: %v", err)
	}
	if sess.Tests() != 0 {
		t.Fatal("closed session absorbed a result")
	}
}

func TestCheckpointPendingProposalRoundTrip(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(10, 0.12)
	resp := dilution.Binary{Sens: 0.96, Spec: 0.99}
	popu := workload.Draw(risks, rng.New(404))
	oracle := workload.NewOracle(popu, resp, rng.New(405))

	sess, err := NewSession(pool, Config{Risks: risks, Response: resp, EntropyTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && !sess.Done(); i++ {
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
	}
	pools, err := sess.ProposePools()
	if err != nil || len(pools) == 0 {
		t.Fatalf("propose: %v %v", pools, err)
	}

	var buf bytes.Buffer
	if err := sess.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSession(bytes.NewReader(buf.Bytes()), pool, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stage() != sess.Stage() || restored.Tests() != sess.Tests() {
		t.Fatalf("counters: %d/%d vs %d/%d", restored.Stage(), restored.Tests(), sess.Stage(), sess.Tests())
	}
	if got := restored.Outstanding(); !reflect.DeepEqual(got, pools) {
		t.Fatalf("restored proposal %v, want %v", got, pools)
	}

	// Both sessions absorb the same lab results and finish on identical
	// oracle streams; the evicted-and-restored cohort must classify the
	// same way as the one that stayed resident.
	finish := func(s *Session, seed uint64) *Result {
		o := workload.NewOracle(popu, resp, rng.New(seed))
		outstanding := s.Outstanding()
		results := make([]TestResult, 0, len(outstanding))
		for _, p := range outstanding {
			results = append(results, TestResult{Stage: p.Stage, Index: p.Index, Outcome: o.Test(p.Pool)})
		}
		if err := s.AbsorbResults(results); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(o.Test)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := finish(sess, 777)
	b := finish(restored, 777)
	// Restoring renormalizes the posterior (a ~1-ULP perturbation, same as
	// the historical checkpoint format), so exact marginals and the stage a
	// threshold crossing lands on may differ by rounding; the classification
	// calls must not.
	for i := range a.Classifications {
		if a.Classifications[i].Status != b.Classifications[i].Status {
			t.Fatalf("subject %d: %v resident vs %v restored",
				i, a.Classifications[i].Status, b.Classifications[i].Status)
		}
	}
	if a.Positives() != b.Positives() {
		t.Fatalf("positives diverged: %v vs %v", a.Positives(), b.Positives())
	}
}

func TestCheckpointVersionTagging(t *testing.T) {
	// There is one layout: an idle session, one with a proposal
	// outstanding and a completed one all write the same magic and the one
	// version.
	pool := newTestPool(t)
	risks := workload.UniformRisks(6, 0.1)
	oracle := workload.NewOracle(workload.Draw(risks, rng.New(13)), dilution.Ideal{}, rng.New(14))
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	idle := saveSession(t, sess)
	if _, err := sess.ProposePools(); err != nil {
		t.Fatal(err)
	}
	pending := saveSession(t, sess)
	if _, err := sess.Run(oracle.Test); err != nil {
		t.Fatal(err)
	}
	for shape, raw := range map[string][]byte{"idle": idle, "pending": pending, "completed": saveSession(t, sess)} {
		if h, _ := splitCheckpoint(t, raw); h.Version != checkpointVersion {
			t.Fatalf("%s session wrote version %d, want %d", shape, h.Version, checkpointVersion)
		}
	}
}

// TestLoadSessionRejectsWrongVersion: a checkpoint whose header carries any
// version but the one this build writes is refused by number.
func TestLoadSessionRejectsWrongVersion(t *testing.T) {
	pool := newTestPool(t)
	h, tail := splitCheckpoint(t, saveSession(t, newDenseSession(t, pool, 6, true)))
	for _, v := range []int{0, 2, 3, checkpointVersion + 1} {
		h.Version = v
		_, err := LoadSession(bytes.NewReader(joinCheckpoint(t, h, tail)), pool, nil, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) {
			t.Fatalf("version %d: %v", v, err)
		}
	}
}

func TestRunFromRestoredPendingSession(t *testing.T) {
	// Run on a session restored mid-proposal re-issues the same pools
	// through its test function and completes the campaign.
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.15)
	popu := workload.Draw(risks, rng.New(11))
	oracle := workload.NewOracle(popu, dilution.Ideal{}, rng.New(12))
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ProposePools(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.SaveSession(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSession(&buf, pool, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Positives(); got != popu.Truth {
		t.Fatalf("classified %v, truth %v", got, popu.Truth)
	}
	if math.Abs(float64(res.Tests-len(res.Log))) > 0 {
		t.Fatalf("log has %d records for %d tests", len(res.Log), res.Tests)
	}
}
