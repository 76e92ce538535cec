package obs

import (
	"strings"
	"testing"
	"time"
)

// sloFixture wires a registry, a zero-cooldown flight recorder, and an
// evaluator with a manual clock.
func sloFixture(t *testing.T, objs []Objective) (*Registry, *FlightRecorder, *SLO) {
	t.Helper()
	reg := NewRegistry()
	flight := NewFlightRecorder(16)
	flight.SetCooldown(0)
	slo, err := NewSLO(reg, flight, objs)
	if err != nil {
		t.Fatal(err)
	}
	return reg, flight, slo
}

func TestSLOLatencyBurn(t *testing.T) {
	reg, flight, slo := sloFixture(t, []Objective{{
		Name:     "p99_request",
		Metric:   "sbgt_serve_request_seconds",
		Quantile: 0.99,
		Target:   0.05,
		Degrade:  true,
	}})
	h := reg.Histogram("sbgt_serve_request_seconds", nil)

	// A window without traffic is healthy.
	states := slo.Eval()
	if len(states) != 1 || states[0].Breached || states[0].Burn != 0 {
		t.Fatalf("quiet window states = %+v", states)
	}

	// A window where every request takes 1s blows a 50ms p99 objective:
	// the bad fraction is ~1, and the budget is 1%, so burn ≈ 100.
	for i := 0; i < 100; i++ {
		h.Observe(1.0)
	}
	states = slo.Eval()
	st := states[0]
	if !st.Breached || st.Burn < 50 {
		t.Fatalf("breach window state = %+v, want breached with burn ≈ 100", st)
	}
	if st.Since.IsZero() {
		t.Fatal("breach onset time not stamped")
	}
	if err := slo.Ready(); err == nil {
		t.Fatal("Ready must fail while a Degrade objective is breached")
	}
	dumps := flight.Anomalies()
	if len(dumps) != 1 || dumps[0].Reason != "slo:p99_request" {
		t.Fatalf("anomaly dumps = %+v, want one slo:p99_request", dumps)
	}

	// Exported gauges mirror the state.
	snap := reg.Snapshot()
	var burn, breached float64
	for _, g := range snap.Gauges {
		switch g.Name {
		case "sbgt_slo_burn_ratio":
			burn = g.Value
		case "sbgt_slo_breached":
			breached = g.Value
		}
	}
	if burn < 50 || breached != 1 {
		t.Fatalf("gauges burn=%v breached=%v", burn, breached)
	}
	if got := reg.Counter("sbgt_slo_breaches_total").Value(); got != 1 {
		t.Fatalf("breach counter = %d, want 1", got)
	}

	// A quiet window recovers: no new observations, burn falls to zero.
	states = slo.Eval()
	if states[0].Breached || !states[0].Since.IsZero() {
		t.Fatalf("post-recovery state = %+v", states[0])
	}
	if err := slo.Ready(); err != nil {
		t.Fatalf("Ready after recovery: %v", err)
	}
}

// TestSLOFirstEvalSeesTraffic: the baseline is taken when the evaluator is
// built, so a burst that ends before the second tick is still judged by
// the first.
func TestSLOFirstEvalSeesTraffic(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("sbgt_serve_request_seconds", nil)
	h.Observe(1.0) // before the evaluator exists: not in any window
	flight := NewFlightRecorder(16)
	flight.SetCooldown(0)
	slo, err := NewSLO(reg, flight, []Objective{{
		Name:     "p99_request",
		Metric:   "sbgt_serve_request_seconds",
		Quantile: 0.99,
		Target:   0.05,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.0)
	}
	st := slo.Eval()[0]
	if !st.Breached || st.Current != 1 {
		t.Fatalf("first Eval after a breaching burst = %+v, want breached with bad fraction 1", st)
	}
	if dumps := flight.Anomalies(); len(dumps) != 1 || dumps[0].Reason != "slo:p99_request" {
		t.Fatalf("anomaly dumps = %+v, want one slo:p99_request", dumps)
	}
}

func TestSLOLatencyWithinTarget(t *testing.T) {
	reg, flight, slo := sloFixture(t, []Objective{{
		Name:     "p99_request",
		Metric:   "sbgt_serve_request_seconds",
		Quantile: 0.99,
		Target:   0.5,
	}})
	h := reg.Histogram("sbgt_serve_request_seconds", nil)
	slo.Eval()
	for i := 0; i < 1000; i++ {
		h.Observe(0.001) // 1ms, far under a 500ms target
	}
	st := slo.Eval()[0]
	if st.Breached || st.Burn > 0.5 {
		t.Fatalf("healthy window reported %+v", st)
	}
	if len(flight.Anomalies()) != 0 {
		t.Fatal("healthy window produced an anomaly dump")
	}
}

func TestSLOSustainedBreachDumpsOnce(t *testing.T) {
	// Edge-triggering: a breach that persists across many evaluation ticks
	// produces exactly one auto-dump (the onset), even with a zero
	// recorder cooldown.
	reg, flight, slo := sloFixture(t, []Objective{{
		Name:     "p99_request",
		Metric:   "sbgt_serve_request_seconds",
		Quantile: 0.9,
		Target:   0.01,
	}})
	h := reg.Histogram("sbgt_serve_request_seconds", nil)
	slo.Eval()
	for tick := 0; tick < 5; tick++ {
		for i := 0; i < 50; i++ {
			h.Observe(1.0)
		}
		if st := slo.Eval()[0]; !st.Breached {
			t.Fatalf("tick %d: not breached: %+v", tick, st)
		}
	}
	if dumps := flight.Anomalies(); len(dumps) != 1 {
		t.Fatalf("sustained breach produced %d dumps, want exactly 1", len(dumps))
	}
	if got := reg.Counter("sbgt_slo_breaches_total").Value(); got != 1 {
		t.Fatalf("breach counter = %d, want 1", got)
	}
}

func TestSLOErrorRatio(t *testing.T) {
	reg, _, slo := sloFixture(t, []Objective{{
		Name:        "error_budget",
		ErrorMetric: "sbgt_serve_tenant_errors_total",
		TotalMetric: "sbgt_serve_tenant_requests_total",
		MaxRatio:    0.1,
	}})
	errs := reg.Counter("sbgt_serve_tenant_errors_total")
	total := reg.Counter("sbgt_serve_tenant_requests_total")
	slo.Eval()

	total.Add(100)
	errs.Add(5) // 5% < 10% budget
	st := slo.Eval()[0]
	if st.Breached || st.Burn < 0.4 || st.Burn > 0.6 {
		t.Fatalf("5%% errors vs 10%% budget = %+v, want burn 0.5", st)
	}

	total.Add(100)
	errs.Add(50) // 50% >> 10%
	st = slo.Eval()[0]
	if !st.Breached || st.Current < 0.49 || st.Current > 0.51 {
		t.Fatalf("50%% error window = %+v", st)
	}
}

func TestSLOBurstObjective(t *testing.T) {
	reg, flight, slo := sloFixture(t, []Objective{{
		Name:        "shed_burst",
		BurstMetric: "sbgt_serve_requests_shed_total",
		Max:         10,
		Degrade:     true,
	}})
	shed := reg.Counter("sbgt_serve_requests_shed_total")
	slo.Eval()

	shed.Add(3)
	if st := slo.Eval()[0]; st.Breached {
		t.Fatalf("3 sheds vs max 10 breached: %+v", st)
	}
	shed.Add(40)
	st := slo.Eval()[0]
	if !st.Breached || st.Current != 40 {
		t.Fatalf("40-shed window = %+v", st)
	}
	if err := slo.Ready(); err == nil || !strings.Contains(err.Error(), "shed_burst") {
		t.Fatalf("Ready = %v, want shed_burst breach", err)
	}
	if dumps := flight.Anomalies(); len(dumps) != 1 || dumps[0].Reason != "slo:shed_burst" {
		t.Fatalf("dumps = %+v", dumps)
	}
}

func TestSLONonDegradeDoesNotAffectReadiness(t *testing.T) {
	reg, _, slo := sloFixture(t, []Objective{{
		Name:        "shed_burst",
		BurstMetric: "sbgt_serve_requests_shed_total",
		Max:         1,
		// Degrade unset: observe-only objective.
	}})
	shed := reg.Counter("sbgt_serve_requests_shed_total")
	slo.Eval()
	shed.Add(100)
	if st := slo.Eval()[0]; !st.Breached {
		t.Fatalf("expected breach: %+v", st)
	}
	if err := slo.Ready(); err != nil {
		t.Fatalf("observe-only breach degraded readiness: %v", err)
	}
}

func TestSLOValidation(t *testing.T) {
	reg := NewRegistry()
	if _, err := NewSLO(nil, nil, nil); err == nil {
		t.Fatal("nil registry accepted")
	}
	bad := []Objective{
		{Name: "no-metric"},
		{Name: "bad-quantile", Metric: "m_seconds", Quantile: 1.5, Target: 0.1},
		{Name: "bad-target", Metric: "m_seconds", Quantile: 0.99},
		{Name: "no-total", ErrorMetric: "e_total", MaxRatio: 0.1},
		{Name: "bad-ratio", ErrorMetric: "e_total", TotalMetric: "t_total"},
		{Name: "bad-max", BurstMetric: "b_total"},
	}
	for _, o := range bad {
		if _, err := NewSLO(reg, nil, []Objective{o}); err == nil {
			t.Errorf("objective %q accepted, want validation error", o.Name)
		}
	}
}

func TestSLOStatesAndStartStop(t *testing.T) {
	reg, _, slo := sloFixture(t, []Objective{{
		Name:        "shed_burst",
		BurstMetric: "sbgt_serve_requests_shed_total",
		Max:         1,
	}})
	_ = reg.Counter("sbgt_serve_requests_shed_total")

	before := time.Now()
	slo.SetClock(func() time.Time { return before })
	if got := slo.States(); len(got) != 1 || got[0].Name != "shed_burst" || got[0].Kind != "burst" {
		t.Fatalf("States = %+v", got)
	}

	stop := slo.Start(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	if got := slo.States(); len(got) != 1 {
		t.Fatalf("States after Start/stop = %+v", got)
	}
}
