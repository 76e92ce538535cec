package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
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
// evaluations coalesce), the dump carries an http span naming the
// offending tenant and cohort, and its trace ID resolves to a
// well-formed span tree via obs.Assemble. With Degrade set, /readyz
// turns 503 while burning.
func TestInducedAnomalyExactlyOneDump(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	flight := obs.NewFlightRecorder(64)
	flight.Attach(tracer)
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

	// The dump must carry an actionable http span: tenant, cohort, and a
	// resolvable trace ID.
	var offender *obs.SpanRecord
	for i := range dump.Spans {
		s := &dump.Spans[i]
		if s.Name == "http" && attr(*s, "tenant") == "acme" && attr(*s, "cohort") == created.ID && s.TraceID != 0 {
			offender = s
			break
		}
	}
	if offender == nil {
		t.Fatalf("dump has no http span for tenant acme cohort %s with a trace ID: %+v", created.ID, dump.Spans)
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
// dump the breach produced.
func breachDump(t *testing.T, maxResident int) obs.AnomalyDump {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1024)
	flight := obs.NewFlightRecorder(1024)
	flight.Attach(tracer)
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
	// One round fetches both proposals, then answers both, so under one
	// resident slot every request restores its cohort and checkpoints the
	// other; subject 1 is the only positive, so each cohort needs several
	// stages.
	round := func() {
		var pools [2]PoolsResponse
		for i, id := range ids {
			if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+id+"/pools", nil, &pools[i]); code != http.StatusOK {
				t.Fatalf("pools %s: status %d", id, code)
			}
		}
		for i, id := range ids {
			if pools[i].Done {
				continue
			}
			if code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts/"+id+"/results", answer(pools[i], bitvec.FromIndices(1)), nil); code != http.StatusOK {
				t.Fatalf("results %s: status %d", id, code)
			}
		}
	}
	round()
	round()
	if st := slo.Eval(); !st[0].Breached {
		t.Fatalf("objective not breached: %+v", st[0])
	}
	// The breach persists across a later window with fresh traffic — still
	// exactly one dump.
	round()
	slo.Eval()

	dumps := flight.Anomalies()
	if len(dumps) != 1 {
		t.Fatalf("got %d anomaly dumps, want exactly 1", len(dumps))
	}
	return dumps[0]
}

// attr returns the span's attr value for key, formatted ("" when
// absent).
func attr(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return fmt.Sprint(a.Value)
		}
	}
	return ""
}

// TestAnomalyDumpNamesLayers: a served request's work hangs under its
// http span, so the dump an SLO breach freezes adds up. On a churn-shaped
// drive (two cohorts, one resident slot) a results submission waits for
// the cohort lock, restores its cohort, updates, classifies (and selects
// the next stage) and checkpoints the other cohort — all inside its http
// tree — and every http tree's self times sum to the request's duration
// exactly. The same drive with both cohorts resident
// has no restore or checkpoint span. Layers is exactly the self-time fold
// of the dump's spans, largest total first.
func TestAnomalyDumpNamesLayers(t *testing.T) {
	churn := breachDump(t, 1)
	resident := breachDump(t, 2)

	for name, d := range map[string]obs.AnomalyDump{"churn": churn, "resident": resident} {
		self := obs.SelfTimes(d.Spans)
		want := map[string]obs.LayerTotal{}
		for _, s := range d.Spans {
			l := want[s.Name]
			l.Name = s.Name
			l.Count++
			l.Total += self[s.ID]
			l.Max = max(l.Max, self[s.ID])
			want[s.Name] = l
		}
		if len(d.Layers) != len(want) {
			t.Errorf("%s: %d layers for %d span names: %+v", name, len(d.Layers), len(want), d.Layers)
		}
		for i, l := range d.Layers {
			if l != want[l.Name] {
				t.Errorf("%s: layer %+v, spans fold to %+v", name, l, want[l.Name])
			}
			if i > 0 && l.Total > d.Layers[i-1].Total {
				t.Errorf("%s: layers not sorted by total: %+v", name, d.Layers)
			}
		}
		if name == "resident" && want["restore"].Count+want["checkpoint"].Count > 0 {
			t.Errorf("resident: dump has restore or checkpoint spans: %+v", d.Layers)
		}

		// Every served request's tree adds up; on the churned drive the
		// slowest results submission holds every layer a turn costs.
		var slowest *obs.TraceNode
		var slowestHas map[string]bool
		requests := 0
		for _, tr := range obs.Assemble(d.Spans) {
			for _, root := range tr.Roots {
				if root.Name != "http" {
					continue
				}
				requests++
				var sum time.Duration
				has := map[string]bool{}
				(&obs.Trace{Roots: []*obs.TraceNode{root}}).Walk(func(_ int, n *obs.TraceNode) {
					sum += self[n.ID]
					has[n.Name] = true
				})
				if sum != root.Duration {
					t.Errorf("%s: %s %s self times sum to %v, the request took %v",
						name, attr(root.SpanRecord, "method"), attr(root.SpanRecord, "path"), sum, root.Duration)
				}
				if strings.HasSuffix(attr(root.SpanRecord, "path"), "/results") && (slowest == nil || root.Duration > slowest.Duration) {
					slowest, slowestHas = root, has
				}
			}
		}
		if requests == 0 || slowest == nil {
			t.Fatalf("%s: no http span in the dump: %+v", name, d.Layers)
		}
		if name == "churn" {
			for _, layer := range []string{"lock_wait", "restore", "update", "classify", "checkpoint"} {
				if !slowestHas[layer] {
					t.Errorf("churn: slowest results submission has no %s span: %+v", layer, slowestHas)
				}
			}
		}
	}
}

// TestShedSpan: a shed request leaves a zero-length shed span even
// though no handler runs.
func TestShedSpan(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	s, _ := newTestServer(t,
		ManagerConfig{Obs: reg},
		ServerConfig{Obs: reg, Tracer: tracer, MaxInflight: 1})

	// Fill the only inflight slot so the next request sheds.
	s.inflight <- struct{}{}
	defer func() { <-s.inflight }()

	req, _ := http.NewRequest("GET", "/v1/cohorts/nope", nil)
	rec := newRecorder()
	s.ServeHTTP(rec, req)
	if rec.status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.status)
	}
	spans, _ := tracer.Snapshot()
	if len(spans) != 1 || spans[0].Name != "shed" || attr(spans[0], "path") != "/v1/cohorts/nope" {
		t.Fatalf("spans = %+v, want one shed span", spans)
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
