package posterior_test

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/obs"
	"repro/internal/posterior"
)

// opCount sums a backend's sbgt_posterior_op_seconds observations for one
// op across the snapshot.
func opCount(snap *obs.Snapshot, backend, op string) uint64 {
	var total uint64
	for _, h := range snap.Histograms {
		if h.Name != "sbgt_posterior_op_seconds" {
			continue
		}
		match := 0
		for _, l := range h.Labels {
			if (l.Key == "backend" && l.Value == backend) || (l.Key == "op" && l.Value == op) {
				match++
			}
		}
		if match == 2 {
			total += h.Count
		}
	}
	return total
}

// TestInstrumentTransparent wraps every backend, replays the script, and
// checks the decorator changes no results while counting every op.
func TestInstrumentTransparent(t *testing.T) {
	ref := denseReference(t)
	refMarg := ref.Marginals()
	for _, bc := range backends(t) {
		t.Run(string(bc.kind), func(t *testing.T) {
			reg := obs.NewRegistry()
			m := posterior.Instrument(bc.open(t, conformanceRisks, conformanceResp), reg)
			defer m.Close()

			if got := posterior.Base(m).Kind(); got != bc.kind {
				t.Fatalf("Base unwrapped to kind %s", got)
			}
			if double := posterior.Instrument(m, reg); posterior.Base(double) != posterior.Base(m) {
				t.Fatal("double instrumentation stacked decorators")
			}

			replayScript(t, m)
			marg, err := m.Marginals()
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(marg, refMarg); d > kernelTol {
				t.Fatalf("instrumented marginals diverge by %g", d)
			}
			if _, err := m.Entropy(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.NegMasses([]bitvec.Mask{bitvec.FromIndices(0, 1)}); err != nil {
				t.Fatal(err)
			}

			snap := reg.Snapshot()
			b := string(bc.kind)
			if got := opCount(snap, b, "update"); got != uint64(len(script)) {
				t.Errorf("update count = %d, want %d", got, len(script))
			}
			if got := opCount(snap, b, "marginals"); got == 0 {
				t.Error("marginals not counted")
			}
			if got := opCount(snap, b, "entropy"); got == 0 {
				t.Error("entropy not counted")
			}
			if got := opCount(snap, b, "neg_masses"); got == 0 {
				t.Error("neg_masses not counted")
			}
		})
	}
}

// TestInstrumentConditionRewraps checks instrumentation survives the
// sequential collapse that replaces the model.
func TestInstrumentConditionRewraps(t *testing.T) {
	reg := obs.NewRegistry()
	for _, bc := range backends(t) {
		t.Run(string(bc.kind), func(t *testing.T) {
			m := posterior.Instrument(bc.open(t, conformanceRisks, conformanceResp), reg)
			next, err := m.Condition(0, false)
			if err != nil {
				t.Fatal(err)
			}
			if next == nil {
				t.Fatal("condition on prior returned nil")
			}
			defer next.Close()
			if next == posterior.Base(next) {
				t.Fatal("conditioned model lost instrumentation")
			}
			if err := next.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
				t.Fatal(err)
			}
			if got := opCount(reg.Snapshot(), string(bc.kind), "condition"); got == 0 {
				t.Error("condition not counted")
			}
		})
	}
}

// TestSessionObs runs a campaign with Config.Obs/Tracer wired and checks
// session stage metrics, per-stage timings, and posterior op series all
// materialize.
func TestSessionObs(t *testing.T) {
	for _, bc := range backends(t) {
		t.Run(string(bc.kind), func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := obs.NewTracer(256)
			model := bc.open(t, sessionPriorRisks(), conformanceResp)
			s, err := core.NewSessionOn(model, core.Config{
				Obs:    reg,
				Tracer: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			truth := bitvec.FromIndices(1)
			res, err := s.Run(idealOracle(truth))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.StageTimings) != res.Stages {
				t.Fatalf("recorded %d stage timings over %d stages", len(res.StageTimings), res.Stages)
			}
			for i, st := range res.StageTimings {
				if st.Stage != i+1 {
					t.Errorf("timing %d labeled stage %d", i, st.Stage)
				}
			}

			snap := reg.Snapshot()
			phases := map[string]bool{}
			for _, h := range snap.Histograms {
				if h.Name != "sbgt_session_stage_seconds" {
					continue
				}
				for _, l := range h.Labels {
					if l.Key == "phase" && h.Count > 0 {
						phases[l.Value] = true
					}
				}
			}
			for _, want := range []string{"select", "test", "update", "classify"} {
				if !phases[want] {
					t.Errorf("phase %q has no observations", want)
				}
			}
			if got := opCount(snap, string(bc.kind), "update"); got == 0 {
				t.Error("session did not report posterior update latency")
			}

			spans, _ := tr.Snapshot()
			names := map[string]int{}
			for _, sp := range spans {
				names[sp.Name]++
			}
			if names["stage"] != res.Stages {
				t.Errorf("traced %d stage spans over %d stages", names["stage"], res.Stages)
			}
			for _, want := range []string{"select", "update", "classify"} {
				if names[want] == 0 {
					t.Errorf("no %q spans traced", want)
				}
			}
		})
	}
}
