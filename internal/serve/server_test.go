package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, mcfg ManagerConfig, scfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	m := newTestManager(t, mcfg)
	scfg.Manager = m
	s := NewServer(scfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, in, out any) (int, http.Header) {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestServerEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	_, ts := newTestServer(t,
		ManagerConfig{Obs: reg, Tracer: tracer},
		ServerConfig{Obs: reg, Tracer: tracer})

	risks := workload.UniformRisks(8, 0.15)
	truth := workload.Draw(risks, rng.New(77)).Truth

	var created CreateCohortResponse
	code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{
		Tenant:   "lab-a",
		Risks:    risks,
		Response: ResponseSpec{Kind: "binary", Sens: 1, Spec: 1},
	}, &created)
	if code != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: %d %+v", code, created)
	}

	var pools PoolsResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID+"/pools", nil, &pools); code != http.StatusOK {
		t.Fatalf("pools: %d", code)
	}
	// Re-fetching must re-serve the identical proposal, not advance it.
	var again PoolsResponse
	doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID+"/pools", nil, &again)
	if fmt.Sprint(again) != fmt.Sprint(pools) {
		t.Fatalf("pools not idempotent: %+v vs %+v", again, pools)
	}

	for !pools.Done {
		req := SubmitResultsRequest{}
		for _, p := range pools.Pools {
			var mask int64
			for _, s := range p.Subjects {
				mask |= 1 << s
			}
			req.Results = append(req.Results, ResultJSON{
				Stage:    p.Stage,
				Index:    p.Index,
				Positive: int64(truth)&mask != 0,
			})
		}
		pools = PoolsResponse{}
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts/"+created.ID+"/results", req, &pools); code != http.StatusOK {
			t.Fatalf("results: %d", code)
		}
	}

	var st StatusResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if !st.Done || st.Tenant != "lab-a" {
		t.Fatalf("status: %+v", st)
	}
	for _, c := range st.Classifications {
		want := "negative"
		if truth.Has(c.Subject) {
			want = "positive"
		}
		if c.Status != want {
			t.Errorf("subject %d: %s, truth %s", c.Subject, c.Status, want)
		}
	}

	// The observability surface rides the same mux.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"sbgt_serve_requests_total", "sbgt_serve_cohorts_resident", "sbgt_serve_request_seconds"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/cohorts/"+created.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d", code)
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{}, ServerConfig{})

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/cohorts", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed create: %d", resp.StatusCode)
	}

	// Unknown response kind.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{
		Risks: workload.UniformRisks(4, 0.1), Response: ResponseSpec{Kind: "psychic"},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad kind: %d", code)
	}

	// A look-ahead depth that would weigh every state by 2^23 branch
	// factors: the client's integer is bounded before any lattice is built.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{
		Risks: workload.UniformRisks(16, 0.05), Lookahead: 24,
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("lookahead 24: %d", code)
	}

	// Unknown cohort.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/c99999999/pools", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown cohort: %d", code)
	}

	// A results batch answering the wrong stage leaves the proposal open.
	var created CreateCohortResponse
	doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{Risks: workload.UniformRisks(6, 0.2)}, &created)
	var pools PoolsResponse
	doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID+"/pools", nil, &pools)
	bad := SubmitResultsRequest{Results: []ResultJSON{{Stage: 99, Index: 0}}}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts/"+created.ID+"/results", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong-stage results: %d", code)
	}
	var after PoolsResponse
	doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID+"/pools", nil, &after)
	if fmt.Sprint(after) != fmt.Sprint(pools) {
		t.Fatalf("rejected batch moved the proposal: %+v vs %+v", after, pools)
	}
}

func TestServerBackpressure(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{}, ServerConfig{MaxInflight: 1})

	// Fill the only admission slot, then watch load shed.
	s.inflight <- struct{}{}
	resp, err := http.Get(ts.URL + "/v1/cohorts/c00000001/pools")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if RetryAfter(resp.Header) <= 0 {
		t.Fatal("429 without a Retry-After hint")
	}
	<-s.inflight

	// The slot freed; the same request now reaches the API (404 — the
	// cohort never existed — but it was served, not shed).
	resp, err = http.Get(ts.URL + "/v1/cohorts/c00000001/pools")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after release: %d, want 404", resp.StatusCode)
	}
}

func TestServerDrain(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{}, ServerConfig{})
	risks := workload.UniformRisks(6, 0.1)

	var created CreateCohortResponse
	doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{Risks: risks}, &created)
	doJSON(t, "GET", ts.URL+"/v1/cohorts/"+created.ID+"/pools", nil, nil)

	// Ready before the drain, not after.
	resp, _ := http.Get(ts.URL + "/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}

	var drained DrainResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/drain", nil, &drained); code != http.StatusOK {
		t.Fatalf("drain: %d", code)
	}
	if !drained.Draining || drained.Checkpointed != 1 {
		t.Fatalf("drain response: %+v", drained)
	}

	resp, _ = http.Get(ts.URL + "/readyz")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz during drain: %d %q", resp.StatusCode, body)
	}
	// Liveness is unaffected.
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: %d", resp.StatusCode)
	}

	code, hdr := doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{Risks: risks}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: %d, want 503", code)
	}
	if RetryAfter(hdr) <= 0 {
		t.Fatal("503 without a Retry-After hint")
	}
}

func TestRunLoadSmall(t *testing.T) {
	// A miniature of the 10k loadtest: enough cohorts to exercise the
	// eviction path (MaxResident below the population), full verification
	// of counters and classifications.
	reg := obs.NewRegistry()
	_, ts := newTestServer(t,
		ManagerConfig{Obs: reg, MaxResident: 8},
		ServerConfig{Obs: reg})

	report, err := RunLoad(LoadConfig{
		Target:   ts.URL,
		Cohorts:  32,
		Subjects: 8,
		Risk:     0.1,
		Workers:  16,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Misclassified != 0 {
		t.Fatalf("%d misclassifications under the Ideal response", report.Misclassified)
	}
	if report.ResultsSent != report.TestsServer {
		t.Fatalf("client sent %d results, server absorbed %d", report.ResultsSent, report.TestsServer)
	}
	if report.P99 < report.P50 || report.P50 <= 0 {
		t.Fatalf("implausible latency percentiles: p50=%v p99=%v", report.P50, report.P99)
	}
	if v := reg.Gauge("sbgt_serve_cohorts_resident").Value(); v > 8 {
		t.Fatalf("resident gauge %v exceeds MaxResident", v)
	}
}

func TestRunLoad10kCohorts(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-cohort load run in -short mode")
	}
	reg := obs.NewRegistry()
	_, ts := newTestServer(t,
		ManagerConfig{Obs: reg, MaxResident: 512, MaxCohorts: 20000},
		ServerConfig{Obs: reg, MaxInflight: 256})

	report, err := RunLoad(LoadConfig{
		Target:   ts.URL,
		Cohorts:  10000,
		Subjects: 8,
		Risk:     0.08,
		Workers:  128,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Misclassified != 0 {
		t.Fatalf("%d misclassifications across 10k cohorts", report.Misclassified)
	}
	if report.ResultsSent != report.TestsServer {
		t.Fatalf("lost or double-absorbed results: client sent %d, server absorbed %d",
			report.ResultsSent, report.TestsServer)
	}
	t.Logf("10k cohorts: %d requests, p50=%v p99=%v, %.0f req/s",
		report.Requests, report.P50, report.P99, report.Throughput())
}
