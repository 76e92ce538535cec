package sbgt_test

import (
	"math"
	"testing"
	"time"

	sbgt "repro"
)

func newEngine(t *testing.T) *sbgt.Engine {
	t.Helper()
	e := sbgt.NewEngine(4)
	t.Cleanup(e.Close)
	return e
}

func TestPublicQuickstartFlow(t *testing.T) {
	eng := newEngine(t)
	r := sbgt.NewRand(1)
	risks := sbgt.UniformRisks(12, 0.05)
	popu := sbgt.DrawPopulation(risks, r)
	oracle := sbgt.NewOracle(popu, sbgt.IdealTest(), r)
	sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: sbgt.IdealTest()})
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
	if res.TestsPerSubject() >= 1 {
		t.Fatalf("no pooling savings: %v tests/subject", res.TestsPerSubject())
	}
}

func TestSubjectsHelpers(t *testing.T) {
	s := sbgt.Subjects(0, 2)
	if !s.Has(0) || s.Has(1) || !s.Has(2) {
		t.Fatalf("Subjects(0,2) = %v", s)
	}
	if got := sbgt.AllSubjects(5).Count(); got != 5 {
		t.Fatalf("AllSubjects(5) has %d members", got)
	}
}

func TestResponseConstructors(t *testing.T) {
	responses := []sbgt.Response{
		sbgt.IdealTest(),
		sbgt.BinaryTest(0.95, 0.99),
		sbgt.HyperbolicDilutionTest(0.98, 0.99, 0.3),
		sbgt.LogisticDilutionTest(0.98, 0.99, 4, 1.5),
		sbgt.SubsampleDilutionTest(0.95, 0.99),
		sbgt.CtTest(),
		sbgt.CtTestParams(22, 1, 1.5, 40, 0.999, 5),
	}
	for _, resp := range responses {
		if resp.Name() == "" {
			t.Errorf("%T: empty name", resp)
		}
		// Binary likelihoods at a clean pool must be a distribution.
		pos := resp.Likelihood(sbgt.Positive, 1, 4)
		if pos < 0 || pos > 1 {
			t.Errorf("%s: P(pos|1,4) = %v", resp.Name(), pos)
		}
	}
}

func TestRawModelAndSelection(t *testing.T) {
	eng := newEngine(t)
	m, err := eng.OpenBackend(sbgt.Backend{}, sbgt.UniformRisks(10, 0.08), sbgt.IdealTest())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sel, err := sbgt.SelectPool(m, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pool == 0 || sel.Pool.Count() > 8 {
		t.Fatalf("selection %v", sel.Pool)
	}
	sels, err := sbgt.SelectPools(m, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 2 {
		t.Fatalf("lookahead returned %d pools", len(sels))
	}
	if err := m.Update(sel.Pool, sbgt.Negative); err != nil {
		t.Fatal(err)
	}
	marg, err := m.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sel.Pool.Indices() {
		if marg[i] != 0 {
			t.Fatalf("marginal[%d] = %v after ideal negative", i, marg[i])
		}
	}
}

func TestStrategies(t *testing.T) {
	eng := newEngine(t)
	for _, strat := range []sbgt.Strategy{
		sbgt.HalvingStrategy(8, true),
		sbgt.IndividualStrategy(),
		sbgt.DorfmanStrategy(4),
	} {
		r := sbgt.NewRand(3)
		risks := sbgt.UniformRisks(8, 0.1)
		popu := sbgt.DrawPopulation(risks, r)
		oracle := sbgt.NewOracle(popu, sbgt.IdealTest(), r)
		sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: sbgt.IdealTest(), Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		res, err := sess.Run(oracle.Test)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if got := res.Positives(); got != popu.Truth {
			t.Fatalf("%s misclassified: %v vs %v", strat.Name(), got, popu.Truth)
		}
	}
}

func TestStudyThroughPublicAPI(t *testing.T) {
	eng := newEngine(t)
	cfg := sbgt.StudyConfig{
		RiskGen:    func(r *sbgt.Rand) []float64 { return sbgt.UniformRisks(10, 0.05) },
		Response:   sbgt.IdealTest(),
		Replicates: 10,
		Seed:       9,
	}
	res, err := eng.RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summarize()
	if sum.Accuracy != 1 {
		t.Fatalf("accuracy = %v", sum.Accuracy)
	}
	ser, err := sbgt.RunStudySerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ser.Summarize() != sum {
		t.Fatal("serial study summary diverged from parallel")
	}
}

func TestHouseholdAndBetaRisks(t *testing.T) {
	r := sbgt.NewRand(5)
	hh := sbgt.HouseholdRisks(12, 4, 0.3, 0.01, 0.4, r)
	if len(hh) != 12 {
		t.Fatalf("household risks length %d", len(hh))
	}
	bb := sbgt.BetaRisks(12, 2, 20, r)
	for _, p := range bb {
		if !(p > 0 && p < 1) {
			t.Fatalf("beta risk %v out of range", p)
		}
	}
}

func TestClusterThroughPublicAPI(t *testing.T) {
	// One in-process executor on loopback, owned by the model.
	eng := newEngine(t)
	risks := sbgt.UniformRisks(8, 0.1)
	m, err := eng.OpenBackend(sbgt.Backend{
		Kind:           sbgt.BackendCluster,
		LocalExecutors: 1,
		ExecWorkers:    2,
		DialTimeout:    2 * time.Second,
	}, risks, sbgt.IdealTest())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Update(sbgt.Subjects(0, 1, 2), sbgt.Negative); err != nil {
		t.Fatal(err)
	}
	marg, err := m.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if marg[i] != 0 {
			t.Fatalf("cluster marginal[%d] = %v", i, marg[i])
		}
	}
	if math.Abs(marg[4]-0.1) > 1e-9 {
		t.Fatalf("untested marginal = %v", marg[4])
	}
	// Look-ahead runs on the cluster backend too, and splits as well as on a
	// dense twin. (Subjects 3..7 are exchangeable here, so which of them a
	// pool takes is decided by last-ulp differences in their marginals.)
	got, err := sbgt.SelectPools(m, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := eng.OpenBackend(sbgt.Backend{}, risks, sbgt.IdealTest())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if err := twin.Update(sbgt.Subjects(0, 1, 2), sbgt.Negative); err != nil {
		t.Fatal(err)
	}
	want, err := sbgt.SelectPools(twin, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Pool.Count() != want[i].Pool.Count() || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("cluster look-ahead pool %d: %v, dense %v", i, got[i], want[i])
		}
	}
}

func TestEvaluateResultPublic(t *testing.T) {
	eng := newEngine(t)
	r := sbgt.NewRand(11)
	risks := sbgt.UniformRisks(9, 0.1)
	popu := sbgt.DrawPopulation(risks, r)
	oracle := sbgt.NewOracle(popu, sbgt.IdealTest(), r)
	sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: sbgt.IdealTest()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	c := sbgt.EvaluateResult(res, popu.Truth)
	if c.Accuracy() != 1 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
	if c.Total() != 9 {
		t.Fatalf("total = %d", c.Total())
	}
}
