package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitvec"
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

// doJSON sends in (when not nil) as method's JSON body, decodes a 2xx
// answer into out (when not nil) and returns the status. It is safe on any
// goroutine: a request that fails reports itself with t.Errorf and returns
// status 0.
func doJSON(t *testing.T, method, url string, in, out any) (int, http.Header) {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Errorf("%s %s: %v", method, url, err)
			return 0, nil
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return 0, nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s %s: decode: %v", method, url, err)
			return 0, nil
		}
	}
	return resp.StatusCode, resp.Header
}

// answer is the Ideal lab's results for pools: a pool is positive iff it
// holds a subject infected under truth.
func answer(pools PoolsResponse, truth bitvec.Mask) SubmitResultsRequest {
	req := SubmitResultsRequest{Results: make([]ResultJSON, len(pools.Pools))}
	for i, p := range pools.Pools {
		positive := idealOutcome(truth, bitvec.FromIndices(p.Subjects...)).Positive
		req.Results[i] = ResultJSON{Stage: p.Stage, Index: p.Index, Positive: positive}
	}
	return req
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
		req := answer(pools, truth)
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
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs <= 0 {
		t.Fatalf("429 with Retry-After %q, want a positive number of seconds", resp.Header.Get("Retry-After"))
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
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs <= 0 {
		t.Fatalf("503 with Retry-After %q, want a positive number of seconds", hdr.Get("Retry-After"))
	}
}

// TestServerReconcile creates 512 cohorts before it drives any, then 64
// concurrent clients drive them to classification over HTTP against 8
// resident slots. Every cohort ends done, with the server's test count
// equal to the results its client sent (none lost, none absorbed twice)
// and every subject classified as the Ideal lab's truth says. Creating
// 512 cohorts in 8 slots evicts at least 504, and the 504 or more left on
// disk must each be restored to be driven: restores and evictions each
// reach cohorts − MaxResident. The resident gauge ends within MaxResident.
func TestServerReconcile(t *testing.T) {
	const cohorts, subjects, resident, clients = 512, 8, 8, 64
	reg := obs.NewRegistry()
	_, ts := newTestServer(t,
		ManagerConfig{Obs: reg, MaxResident: resident},
		ServerConfig{Obs: reg})

	risks := workload.UniformRisks(subjects, 0.1)
	type campaign struct {
		id    string
		truth bitvec.Mask
		sent  int
	}
	campaigns := make([]campaign, cohorts)
	// eachCohort runs job on every campaign, clients at a time: client w
	// takes campaigns w, w+clients, … in turn and stops at its first failure.
	eachCohort := func(job func(i int, c *campaign) bool) {
		var wg sync.WaitGroup
		for w := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < cohorts && job(i, &campaigns[i]); i += clients {
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	eachCohort(func(i int, c *campaign) bool {
		var created CreateCohortResponse
		code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts", CreateCohortRequest{
			Tenant:   fmt.Sprintf("t%02d", i%16),
			Risks:    risks,
			Response: ResponseSpec{Kind: "ideal"},
		}, &created)
		if code != http.StatusCreated {
			t.Errorf("create cohort %d: status %d", i, code)
			return false
		}
		*c = campaign{id: created.ID, truth: workload.Draw(risks, rng.New(uint64(i))).Truth}
		return true
	})

	eachCohort(func(_ int, c *campaign) bool {
		var pools PoolsResponse
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+c.id+"/pools", nil, &pools); code != http.StatusOK {
			t.Errorf("pools %s: status %d", c.id, code)
			return false
		}
		for !pools.Done {
			req := answer(pools, c.truth)
			c.sent += len(req.Results)
			pools = PoolsResponse{}
			if code, _ := doJSON(t, "POST", ts.URL+"/v1/cohorts/"+c.id+"/results", req, &pools); code != http.StatusOK {
				t.Errorf("results %s: status %d", c.id, code)
				return false
			}
		}
		return true
	})

	eachCohort(func(_ int, c *campaign) bool {
		var st StatusResponse
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/cohorts/"+c.id, nil, &st); code != http.StatusOK {
			t.Errorf("status %s: %d", c.id, code)
			return false
		}
		if !st.Done || len(st.Classifications) != subjects {
			t.Errorf("cohort %s after its drive: done %v, %d calls", c.id, st.Done, len(st.Classifications))
		}
		if st.Tests != c.sent {
			t.Errorf("cohort %s: server absorbed %d tests, client sent %d", c.id, st.Tests, c.sent)
		}
		for _, cl := range st.Classifications {
			want := "negative"
			if c.truth.Has(cl.Subject) {
				want = "positive"
			}
			if cl.Status != want {
				t.Errorf("cohort %s subject %d: %s, truth %s", c.id, cl.Subject, cl.Status, want)
			}
		}
		return true
	})
	for _, name := range []string{"sbgt_serve_restores_total", "sbgt_serve_evictions_total"} {
		got := reg.Counter(name).Value()
		if got < cohorts-resident {
			t.Errorf("%s = %d, want at least %d (cohorts − MaxResident)", name, got, cohorts-resident)
		}
		t.Logf("%s: %.2f per cohort", name, float64(got)/cohorts)
	}
	if v := reg.Gauge("sbgt_serve_cohorts_resident").Value(); v > resident {
		t.Errorf("resident gauge %v exceeds MaxResident %d", v, resident)
	}
}
