package core

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/workload"
)

func newTestPool(t testing.TB) *engine.Pool {
	t.Helper()
	p := engine.NewPool(4)
	t.Cleanup(p.Close)
	return p
}

func TestStatusString(t *testing.T) {
	if StatusUnknown.String() != "unknown" || StatusNegative.String() != "negative" || StatusPositive.String() != "positive" {
		t.Error("status names wrong")
	}
	if Status(9).String() != "unknown" {
		t.Error("unknown status should render as unknown")
	}
}

func TestResultEdgeAccessors(t *testing.T) {
	var r Result
	if r.TestsPerSubject() != 0 {
		t.Error("empty result tests/subject")
	}
	if r.Positives() != 0 {
		t.Error("empty result positives")
	}
}

func TestConfigValidation(t *testing.T) {
	pool := newTestPool(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty cohort", Config{Response: dilution.Ideal{}}},
		{"nil response", Config{Risks: workload.UniformRisks(4, 0.1)}},
		{"bad thresholds", Config{Risks: workload.UniformRisks(4, 0.1), Response: dilution.Ideal{}, PosThreshold: 0.3, NegThreshold: 0.5}},
		{"lookahead without halving", Config{Risks: workload.UniformRisks(4, 0.1), Response: dilution.Ideal{}, Lookahead: 2, Strategy: halving.Individual{}}},
		{"lookahead above MaxLookahead", Config{Risks: workload.UniformRisks(4, 0.1), Response: dilution.Ideal{}, Lookahead: MaxLookahead + 1}},
		{"negative MaxStages", Config{Risks: workload.UniformRisks(4, 0.1), Response: dilution.Ideal{}, MaxStages: -1}},
	}
	for _, c := range cases {
		if _, err := NewSession(pool, c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRunIdealClassifiesEveryoneCorrectly(t *testing.T) {
	pool := newTestPool(t)
	r := rng.New(7)
	for trial := 0; trial < 8; trial++ {
		risks := workload.UniformRisks(10, 0.1)
		popu := workload.Draw(risks, r)
		oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
		sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(oracle.Test)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		if got := res.Positives(); got != popu.Truth {
			t.Fatalf("trial %d: classified %v, truth %v", trial, got, popu.Truth)
		}
		if res.Tests != oracle.Tests() {
			t.Fatalf("session counted %d tests, oracle ran %d", res.Tests, oracle.Tests())
		}
		for _, c := range res.Classifications {
			if c.Status == StatusUnknown {
				t.Fatalf("subject %d left unknown", c.Subject)
			}
			if c.Forced {
				t.Fatalf("subject %d force-classified on a converged run", c.Subject)
			}
		}
	}
}

func TestRunSavesTestsVsIndividual(t *testing.T) {
	// At low prevalence, halving-driven group testing must use
	// substantially fewer tests than one-test-per-subject.
	pool := newTestPool(t)
	r := rng.New(11)
	risks := workload.UniformRisks(16, 0.03)
	var total int
	const reps = 6
	for rep := 0; rep < reps; rep++ {
		popu := workload.Draw(risks, r)
		oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
		sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(oracle.Test)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Positives(); got != popu.Truth {
			t.Fatalf("rep %d misclassified", rep)
		}
		total += res.Tests
	}
	perSubject := float64(total) / float64(reps*16)
	if perSubject >= 0.75 {
		t.Fatalf("tests per subject %v, want clear savings vs 1.0", perSubject)
	}
}

func TestRunNoisyResponseAccuracy(t *testing.T) {
	pool := newTestPool(t)
	resp := dilution.Hyperbolic{MaxSens: 0.98, Spec: 0.995, D: 0.2}
	r := rng.New(13)
	risks := workload.UniformRisks(12, 0.08)
	correct, totalSubjects := 0, 0
	for rep := 0; rep < 10; rep++ {
		popu := workload.Draw(risks, r)
		oracle := workload.NewOracle(popu, resp, r)
		sess, err := NewSession(pool, Config{Risks: risks, Response: resp})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(oracle.Test)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Classifications {
			totalSubjects++
			want := StatusNegative
			if popu.Truth.Has(c.Subject) {
				want = StatusPositive
			}
			if c.Status == want {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(totalSubjects); acc < 0.9 {
		t.Fatalf("noisy-response accuracy %v below 0.9", acc)
	}
}

func TestStepAccounting(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.15)
	r := rng.New(3)
	popu := workload.Draw(risks, r)
	oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Done() || sess.Remaining() != 8 || sess.Stage() != 0 {
		t.Fatal("fresh session state wrong")
	}
	if err := sess.Step(oracle.Test); err != nil {
		t.Fatal(err)
	}
	if sess.Stage() != 1 || sess.Tests() != 1 {
		t.Fatalf("stage=%d tests=%d after one step", sess.Stage(), sess.Tests())
	}
	// Classifications of unknown subjects expose live marginals in [0,1].
	for _, c := range sess.Classifications() {
		if c.Marginal < 0 || c.Marginal > 1 {
			t.Fatalf("marginal %v out of range", c.Marginal)
		}
	}
	// Step with nil test is an error; step after done is a no-op.
	if err := sess.Step(nil); err == nil {
		t.Error("nil test accepted")
	}
}

func TestLookaheadRunsFewerStages(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(12, 0.1)
	run := func(lookahead int) (stages, tests int) {
		var sSum, tSum int
		const reps = 8
		for rep := uint64(0); rep < reps; rep++ {
			r := rng.New(100 + rep)
			popu := workload.Draw(risks, r)
			oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
			sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}, Lookahead: lookahead})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(oracle.Test)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Positives(); got != popu.Truth {
				t.Fatalf("lookahead=%d rep %d misclassified", lookahead, rep)
			}
			sSum += res.Stages
			tSum += res.Tests
		}
		return sSum, tSum
	}
	s1, t1 := run(1)
	s3, t3 := run(3)
	if s3 >= s1 {
		t.Fatalf("lookahead did not cut stages: %d vs %d", s3, s1)
	}
	if t3 < t1 {
		t.Logf("note: lookahead also cut tests (%d vs %d)", t3, t1)
	}
}

func TestMaxStagesForcesClassification(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(10, 0.2)
	r := rng.New(17)
	popu := workload.Draw(risks, r)
	// A nearly uninformative test cannot converge in 2 stages.
	resp := dilution.Binary{Sens: 0.55, Spec: 0.55}
	oracle := workload.NewOracle(popu, resp, r)
	sess, err := NewSession(pool, Config{Risks: risks, Response: resp, MaxStages: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("claimed convergence under an uninformative assay in 2 stages")
	}
	if res.Stages != 2 {
		t.Fatalf("ran %d stages, cap was 2", res.Stages)
	}
	forced := 0
	for _, c := range res.Classifications {
		if c.Status == StatusUnknown {
			t.Fatalf("subject %d left unknown after forced termination", c.Subject)
		}
		if c.Forced {
			forced++
		}
	}
	if forced == 0 {
		t.Fatal("no forced classifications recorded")
	}
}

func TestEntropyTraceTrendsToZero(t *testing.T) {
	// Realized entropy may rise on an unlikely outcome (only its
	// expectation is monotone), but a converged campaign must start at the
	// prior entropy and end far below it.
	pool := newTestPool(t)
	risks := workload.UniformRisks(10, 0.12)
	r := rng.New(29)
	popu := workload.Draw(risks, r)
	oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}, EntropyTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EntropyTrace) < 2 {
		t.Fatalf("trace too short: %v", res.EntropyTrace)
	}
	prior := 10 * prob.BernoulliEntropy(0.12) / math.Ln2
	if math.Abs(res.EntropyTrace[0]-prior) > 1e-9 {
		t.Fatalf("trace starts at %v, prior entropy is %v", res.EntropyTrace[0], prior)
	}
	last := res.EntropyTrace[len(res.EntropyTrace)-1]
	if last > res.EntropyTrace[0]/2 {
		t.Fatalf("entropy did not trend down: %v", res.EntropyTrace)
	}
}

func TestTestLogConsistency(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(9, 0.15)
	r := rng.New(31)
	popu := workload.Draw(risks, r)
	oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) != res.Tests {
		t.Fatalf("log has %d records, %d tests", len(res.Log), res.Tests)
	}
	for i, rec := range res.Log {
		if rec.Pool == 0 {
			t.Fatalf("record %d has empty pool", i)
		}
		if !rec.Pool.SubsetOf(bitvec.Full(9)) {
			t.Fatalf("record %d pool %v outside cohort", i, rec.Pool)
		}
		if rec.Stage < 1 || rec.Stage > res.Stages {
			t.Fatalf("record %d stage %d outside [1,%d]", i, rec.Stage, res.Stages)
		}
	}
	if got := res.TestsPerSubject(); math.Abs(got-float64(res.Tests)/9) > 1e-15 {
		t.Fatalf("TestsPerSubject = %v", got)
	}
}

func TestHighPrevalencePositivesClassified(t *testing.T) {
	// Mostly infected cohort exercises the positive-conditioning path.
	pool := newTestPool(t)
	risks := workload.UniformRisks(8, 0.7)
	r := rng.New(37)
	popu := workload.Draw(risks, r)
	oracle := workload.NewOracle(popu, dilution.Ideal{}, r)
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Positives(); got != popu.Truth {
		t.Fatalf("classified %v, truth %v", got, popu.Truth)
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	pool := newTestPool(t)
	risks := workload.UniformRisks(10, 0.1)
	run := func() *Result {
		r := rng.New(55)
		popu := workload.Draw(risks, r)
		oracle := workload.NewOracle(popu, dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.3}, r)
		sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.3}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(oracle.Test)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Tests != b.Tests || a.Stages != b.Stages || a.Positives() != b.Positives() {
		t.Fatalf("runs diverged: %d/%d/%v vs %d/%d/%v", a.Tests, a.Stages, a.Positives(), b.Tests, b.Stages, b.Positives())
	}
}
