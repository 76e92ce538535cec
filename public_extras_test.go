package sbgt_test

import (
	"bytes"
	"testing"

	sbgt "repro"
)

func TestSessionCheckpointPublic(t *testing.T) {
	eng := newEngine(t)
	r := sbgt.NewRand(12)
	risks := sbgt.UniformRisks(10, 0.08)
	popu := sbgt.DrawPopulation(risks, r)
	oracle := sbgt.NewOracle(popu, sbgt.IdealTest(), r)
	sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: sbgt.IdealTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(oracle.Test); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sbgt.SaveSession(&buf, sess); err != nil {
		t.Fatal(err)
	}
	restored, err := eng.LoadSession(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stage() != sess.Stage() || restored.Remaining() != sess.Remaining() {
		t.Fatalf("restored session state differs: stage %d/%d remaining %d/%d",
			restored.Stage(), sess.Stage(), restored.Remaining(), sess.Remaining())
	}
	res, err := restored.Run(oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Positives(); got != popu.Truth {
		t.Fatalf("resumed campaign classified %v, truth %v", got, popu.Truth)
	}
}

func TestCampaignPublic(t *testing.T) {
	eng := newEngine(t)
	risks := sbgt.UniformRisks(50, 0.05) // crosses cohort boundaries
	// Extend beyond 64 subjects to prove population scale.
	for i := 0; i < 30; i++ {
		risks = append(risks, 0.05)
	}
	r := sbgt.NewRand(31)
	popu := sbgt.DrawLargePopulation(risks, r)
	oracle := sbgt.NewLargeOracle(popu, sbgt.IdealTest(), r)
	res, err := eng.RunCampaign(sbgt.CampaignConfig{
		Risks:      risks,
		Response:   sbgt.IdealTest(),
		CohortSize: 12,
		Assignment: sbgt.AssignSorted,
	}, oracle.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cohorts != (80+11)/12 {
		t.Fatalf("cohorts = %d", res.Cohorts)
	}
	for g, call := range res.Classifications {
		want := popu.Infected[g]
		if (call.Status == sbgt.StatusPositive) != want {
			t.Fatalf("subject %d misclassified", g)
		}
	}
	if res.TestsPerSubject() >= 1 {
		t.Fatalf("no pooling savings: %v", res.TestsPerSubject())
	}
}

func TestSparseModelPublic(t *testing.T) {
	eng := newEngine(t)
	m, err := eng.OpenBackend(sbgt.Backend{Kind: sbgt.BackendSparse, Eps: 1e-10},
		sbgt.UniformRisks(40, 0.02), sbgt.IdealTest())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sel, err := sbgt.SelectPool(m, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pool == 0 || sel.Pool.Count() > 16 {
		t.Fatalf("sparse selection %v", sel.Pool)
	}
	if err := m.Update(sel.Pool, sbgt.Negative); err != nil {
		t.Fatal(err)
	}
	marg, err := m.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range sel.Pool.Indices() {
		if g := marg[idx]; g != 0 {
			t.Fatalf("marginal[%d] = %v after ideal negative", idx, g)
		}
	}
	// The prior tail (many-positive states) below eps carries ~1e-4 mass
	// at this size; the bound must stay small but won't be zero. The
	// snapshot is where the sparse backend reports it.
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.States) == 0 || snap.Pruned > 1e-2 {
		t.Fatalf("support %d states, pruned bound %v", len(snap.States), snap.Pruned)
	}
}

func TestEpidemicPublic(t *testing.T) {
	r := sbgt.NewRand(77)
	epi := sbgt.NewEpidemic(12, 0.1, 0.02, 0.3, 0.01, r)
	if epi.N() != 12 {
		t.Fatalf("N = %d", epi.N())
	}
	marg := make([]float64, 12)
	for i := range marg {
		marg[i] = 0.1
	}
	risks := epi.NextRoundRisks(marg)
	for _, p := range risks {
		if !(p > 0 && p < 1) {
			t.Fatalf("handed-off risk %v invalid", p)
		}
	}
	epi.Advance()
	if p := epi.Prevalence(); p < 0 || p > 1 {
		t.Fatalf("prevalence %v", p)
	}
}

// TestLoadSessionReportsToEngineRegistry: a session resumed on an
// instrumented engine keeps reporting to the engine's registry — its
// stage phases count on past the save.
func TestLoadSessionReportsToEngineRegistry(t *testing.T) {
	eng := newEngine(t)
	reg := sbgt.NewMetrics()
	eng.Instrument(reg)
	phases := func() uint64 {
		var n uint64
		for _, h := range reg.Snapshot().Histograms {
			if h.Name == "sbgt_session_stage_seconds" {
				n += h.Count
			}
		}
		return n
	}
	risks := sbgt.UniformRisks(12, 0.1)
	assay := sbgt.BinaryTest(0.9, 0.95)
	oracle := sbgt.NewOracle(sbgt.DrawPopulation(risks, sbgt.NewRand(41)), assay, sbgt.NewRand(42))
	sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: assay, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(oracle.Test); err != nil {
		t.Fatal(err)
	}
	saved := phases()
	if saved == 0 {
		t.Fatal("an observed stage recorded no phase")
	}
	var buf bytes.Buffer
	if err := sbgt.SaveSession(&buf, sess); err != nil {
		t.Fatal(err)
	}
	restored, err := eng.LoadSession(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		before := phases()
		if restored.Done() {
			t.Fatalf("campaign ended after %d resumed stages", i)
		}
		if err := restored.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
		if phases() <= before {
			t.Fatalf("resumed stage %d recorded no phase: %d observations before it and after", i+1, before)
		}
	}
}
