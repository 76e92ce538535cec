package serve

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestTenantLabelCardinalityBound proves the per-tenant RED series can
// never explode: drive requests from more distinct tenants than the
// bound and the surplus aggregates under the "__other__" label, keeping
// total tenant label values at the bound plus the overflow bucket.
func TestTenantLabelCardinalityBound(t *testing.T) {
	reg := obs.NewRegistry()
	const bound = 4
	_, ts := newTestServer(t,
		ManagerConfig{Obs: reg},
		ServerConfig{Obs: reg, MaxTenantLabels: bound})

	risks := workload.UniformRisks(4, 0.1)
	const tenants = 10
	for i := 0; i < tenants; i++ {
		var created CreateCohortResponse
		code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{
			Tenant: fmt.Sprintf("tenant-%02d", i),
			Risks:  risks,
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
	}

	snap := reg.Snapshot()
	values := map[string]uint64{}
	for _, c := range snap.Counters {
		if c.Name != "sbgt_serve_tenant_requests_total" {
			continue
		}
		for _, l := range c.Labels {
			if l.Key == "tenant" {
				values[l.Value] = c.Value
			}
		}
	}
	if len(values) > bound+1 {
		t.Fatalf("tenant label cardinality %d exceeds bound %d (+overflow): %v", len(values), bound, values)
	}
	overflow, ok := values[TenantOverflow]
	if !ok {
		t.Fatalf("no %s series despite %d tenants past the %d bound: %v", TenantOverflow, tenants, bound, values)
	}
	if want := uint64(tenants - bound); overflow != want {
		t.Fatalf("overflow requests = %d, want %d", overflow, want)
	}
	// The in-bound tenants each keep their own series.
	for i := 0; i < bound; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		if values[name] != 1 {
			t.Fatalf("tenant %s requests = %d, want 1 (%v)", name, values[name], values)
		}
	}

	// The histogram family obeys the same bound.
	histTenants := map[string]bool{}
	for _, h := range snap.Histograms {
		if h.Name != "sbgt_serve_tenant_request_seconds" {
			continue
		}
		for _, l := range h.Labels {
			if l.Key == "tenant" {
				histTenants[l.Value] = true
			}
		}
	}
	if len(histTenants) > bound+1 || !histTenants[TenantOverflow] {
		t.Fatalf("latency family tenants = %v", histTenants)
	}
}

// TestInducedAnomalyExactlyOneDump breaches an impossible p99 objective
// with live traffic and checks the whole forensic chain the tentpole
// promises: exactly one auto-dump fires at breach onset (later
// evaluations coalesce), the dump carries the offending tenant, cohort,
// and trace ID, and that trace ID resolves to a well-formed span tree
// via obs.Assemble. With Degrade set, /readyz turns 503 while burning.
func TestInducedAnomalyExactlyOneDump(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	flight := obs.NewFlightRecorder(64)
	flight.SetCooldown(0) // isolate the SLO edge-trigger from the recorder cooldown

	slo, err := obs.NewSLO(reg, flight, []obs.Objective{{
		Name:     "p99_request",
		Metric:   "sbgt_serve_request_seconds",
		Quantile: 0.99,
		Target:   1e-9, // one nanosecond: any real request breaches
		Degrade:  true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t,
		ManagerConfig{Obs: reg, Tracer: tracer, Flight: flight},
		ServerConfig{Obs: reg, Tracer: tracer, Flight: flight, SLO: slo})

	slo.Eval() // a quiet window before any traffic

	var created CreateCohortResponse
	code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{
		Tenant: "acme",
		Risks:  workload.UniformRisks(4, 0.1),
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID+"/pools", nil, nil); code != http.StatusOK {
		t.Fatalf("pools: status %d", code)
	}

	// Breach onset: the window has traffic, all of it slower than 1ns.
	if st := slo.Eval(); !st[0].Breached {
		t.Fatalf("objective not breached: %+v", st[0])
	}
	// The breach persists across later windows with fresh traffic — still
	// exactly one dump.
	for i := 0; i < 3; i++ {
		doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID, nil, nil)
		slo.Eval()
	}

	dumps := flight.Anomalies()
	if len(dumps) != 1 {
		t.Fatalf("got %d anomaly dumps, want exactly 1", len(dumps))
	}
	dump := dumps[0]
	if dump.Reason != "slo:p99_request" {
		t.Fatalf("dump reason = %q", dump.Reason)
	}

	// The dump must carry an actionable request event: tenant, cohort, and
	// a resolvable trace ID.
	var offender *obs.Event
	for i := range dump.Events {
		ev := &dump.Events[i]
		if ev.Kind == "request" && ev.Tenant == "acme" && ev.Cohort == created.ID && ev.TraceID != 0 {
			offender = ev
			break
		}
	}
	if offender == nil {
		t.Fatalf("dump has no request event for tenant acme cohort %s with a trace ID: %+v", created.ID, dump.Events)
	}

	// Resolve the offending trace through the tracer.
	spans, _ := tracer.Snapshot()
	var found *obs.Trace
	for _, tr := range obs.Assemble(spans) {
		if tr.TraceID == offender.TraceID {
			found = tr
			break
		}
	}
	if found == nil {
		t.Fatalf("trace %016x from the dump not resolvable from the tracer", offender.TraceID)
	}
	if len(found.Roots) == 0 || found.Roots[0].Name != "http" {
		t.Fatalf("assembled trace = %+v, want an http root span", found.Roots)
	}

	// Degrade feeds readiness: /readyz is 503 while the objective burns.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d during breach, want 503", resp.StatusCode)
	}

	// A quiet window recovers readiness.
	slo.Eval()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d after recovery, want 200", resp.StatusCode)
	}
}

// breachDump drives two cohorts in alternation under the given residency
// bound with an unmeetable p99 objective, and returns the one anomaly
// dump the breach produced together with the tracer that saw the traffic.
func breachDump(t *testing.T, maxResident int) (obs.AnomalyDump, *obs.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1024)
	flight := obs.NewFlightRecorder(1024)
	flight.SetCooldown(0) // isolate the SLO edge-trigger from the recorder cooldown

	slo, err := obs.NewSLO(reg, flight, []obs.Objective{{
		Name:     "p99_request",
		Metric:   "sbgt_serve_request_seconds",
		Quantile: 0.99,
		Target:   1e-9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t,
		ManagerConfig{Obs: reg, Tracer: tracer, Flight: flight, MaxResident: maxResident},
		ServerConfig{Obs: reg, Tracer: tracer, Flight: flight, SLO: slo})

	slo.Eval() // a quiet window before any traffic

	risks := workload.UniformRisks(6, 0.15)
	var ids [2]string
	for i := range ids {
		var created CreateCohortResponse
		code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{
			Tenant:   fmt.Sprintf("lab-%d", i),
			Risks:    risks,
			Response: ResponseSpec{Kind: "binary", Sens: 1, Spec: 1},
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids[i] = created.ID
	}
	// One turn is fetch-the-proposal then answer it; subject 1 is the only
	// positive, so each cohort needs several stages.
	turn := func(id string) {
		var pools PoolsResponse
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+id+"/pools", nil, &pools); code != http.StatusOK {
			t.Fatalf("pools %s: status %d", id, code)
		}
		if pools.Done {
			return
		}
		req := SubmitResultsRequest{}
		for _, p := range pools.Pools {
			positive := false
			for _, s := range p.Subjects {
				positive = positive || s == 1
			}
			req.Results = append(req.Results, ResultJSON{Stage: p.Stage, Index: p.Index, Positive: positive})
		}
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts/"+id+"/results", req, nil); code != http.StatusOK {
			t.Fatalf("results %s: status %d", id, code)
		}
	}
	for i := 0; i < 2; i++ {
		turn(ids[0])
		turn(ids[1])
	}
	if st := slo.Eval(); !st[0].Breached {
		t.Fatalf("objective not breached: %+v", st[0])
	}
	// The breach persists across a later window with fresh traffic — still
	// exactly one dump.
	turn(ids[0])
	turn(ids[1])
	slo.Eval()

	dumps := flight.Anomalies()
	if len(dumps) != 1 {
		t.Fatalf("got %d anomaly dumps, want exactly 1", len(dumps))
	}
	return dumps[0], tracer
}

// TestAnomalyDumpNamesLayers: the dump an SLO breach freezes totals its
// own window per event kind, so a churn-shaped drive (two cohorts, one
// resident slot) accounts for restore and evict beside selection
// (stage_propose) and lattice update + classification (stage_absorb),
// and the same drive with both cohorts resident has neither. No ranking
// by time is asserted — only that Layers is exactly the fold of Events.
func TestAnomalyDumpNamesLayers(t *testing.T) {
	churn, tracer := breachDump(t, 1)
	resident, _ := breachDump(t, 2)

	for name, d := range map[string]obs.AnomalyDump{"churn": churn, "resident": resident} {
		want := map[string]obs.LayerTotal{}
		for _, ev := range d.Events {
			l := want[ev.Kind]
			l.Kind = ev.Kind
			l.Count++
			l.Total += ev.Dur
			if ev.Dur > l.Max {
				l.Max = ev.Dur
			}
			want[ev.Kind] = l
		}
		if len(d.Layers) != len(want) {
			t.Errorf("%s: %d layers for %d event kinds: %+v", name, len(d.Layers), len(want), d.Layers)
		}
		for i, l := range d.Layers {
			if l != want[l.Kind] {
				t.Errorf("%s: layer %+v, events fold to %+v", name, l, want[l.Kind])
			}
			if i > 0 && l.Total > d.Layers[i-1].Total {
				t.Errorf("%s: layers not sorted by total: %+v", name, d.Layers)
			}
		}
		timed := []string{"request", "stage_propose", "stage_absorb"}
		if name == "churn" {
			timed = append(timed, "restore", "evict")
		} else if want["restore"].Count+want["evict"].Count > 0 {
			t.Errorf("resident: dump has restore or evict events: %+v", d.Layers)
		}
		for _, kind := range timed {
			if want[kind].Count == 0 || want[kind].Total <= 0 {
				t.Errorf("%s: no timed %s events in the dump: %+v", name, kind, d.Layers)
			}
		}
	}

	// The dump's request events still resolve to a span tree.
	var offender *obs.Event
	for i := range churn.Events {
		if ev := &churn.Events[i]; ev.Kind == "request" && ev.TraceID != 0 {
			offender = ev
			break
		}
	}
	if offender == nil {
		t.Fatalf("churn dump has no request event with a trace ID: %+v", churn.Events)
	}
	spans, _ := tracer.Snapshot()
	for _, tr := range obs.Assemble(spans) {
		if tr.TraceID == offender.TraceID {
			if len(tr.Roots) == 0 || tr.Roots[0].Name != "http" {
				t.Fatalf("assembled trace = %+v, want an http root span", tr.Roots)
			}
			return
		}
	}
	t.Fatalf("trace %016x from the dump not resolvable from the tracer", offender.TraceID)
}

// TestFlightShedEvent: shed requests leave a flight event even though no
// handler runs.
func TestFlightShedEvent(t *testing.T) {
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(16)
	s, _ := newTestServer(t,
		ManagerConfig{Obs: reg},
		ServerConfig{Obs: reg, Flight: flight, MaxInflight: 1})

	// Fill the only inflight slot so the next request sheds.
	s.inflight <- struct{}{}
	defer func() { <-s.inflight }()

	req, _ := http.NewRequest("GET", "/v1/cohorts/nope", nil)
	rec := newRecorder()
	s.ServeHTTP(rec, req)
	if rec.status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.status)
	}
	var shed bool
	for _, ev := range flight.Snapshot().Events {
		if ev.Kind == "shed" {
			shed = true
		}
	}
	if !shed {
		t.Fatal("no shed event recorded")
	}
}

// newRecorder is a minimal ResponseWriter capturing status for direct
// ServeHTTP calls.
type testRecorder struct {
	header http.Header
	status int
	body   []byte
}

func newRecorder() *testRecorder { return &testRecorder{header: http.Header{}, status: http.StatusOK} }

func (r *testRecorder) Header() http.Header { return r.header }
func (r *testRecorder) WriteHeader(c int)   { r.status = c }
func (r *testRecorder) Write(b []byte) (int, error) {
	r.body = append(r.body, b...)
	return len(b), nil
}
