package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"

	"repro/internal/engine"
)

// fuzzMaxSubjects caps the cohorts a fuzzed create may build. The API
// admits up to lattice.MaxSubjects, a 2^30-state posterior, which is a
// capacity question for the operator, not a boundary defect.
const fuzzMaxSubjects = 12

// FuzzServerAPI sends a fuzzed method, path and body through the HTTP
// API of a server holding three cohorts with room for two, so one starts
// on disk. The request is sent twice, the second time against whatever
// the first left behind. Whatever a client sends, nothing panics, no
// status is 500 or above except 503 while draining, and the resident
// posteriors never exceed MaxResident.
func FuzzServerAPI(f *testing.F) {
	pool := engine.NewPool(1)
	f.Cleanup(pool.Close)

	create := `{"tenant":"lab","risks":[0.1,0.2,0.05,0.3],"response":{"kind":"binary","sens":0.95,"spec":0.99}}`
	f.Add("POST", "/v1/cohorts", []byte(create))
	f.Add("POST", "/v1/cohorts", []byte(`{"risks":[0.1,0.1],"response":{"kind":"hyperbolic","max_sens":0.98,"spec":0.995,"d":0.25},"lookahead":2}`))
	f.Add("GET", "/v1/cohorts/c00000001/pools", []byte{})
	f.Add("POST", "/v1/cohorts/c00000002/results", []byte(`{"results":[{"stage":0,"index":0,"positive":true,"ct":31.5}]}`))
	f.Add("GET", "/v1/cohorts/c00000003", []byte{})
	f.Add("DELETE", "/v1/cohorts/c00000001", []byte{})
	f.Add("POST", "/v1/drain", []byte{})
	f.Add("GET", "/readyz", []byte{})

	f.Fuzz(func(t *testing.T, method, target string, body []byte) {
		var probe struct{ Risks []json.RawMessage }
		json.Unmarshal(body, &probe) //lint:allow errcheck a body the probe cannot read is one the server refuses too
		if len(probe.Risks) > fuzzMaxSubjects || strings.HasPrefix(path.Clean("/"+target), "/debug/pprof") {
			return // pprof's profile and trace handlers block for seconds by design
		}
		const maxResident = 2
		m := newTestManager(t, ManagerConfig{Pool: pool, MaxResident: maxResident})
		s := NewServer(ServerConfig{Manager: m})

		send := func(method, target string, body []byte) *httptest.ResponseRecorder {
			req, err := http.NewRequest(method, "http://sbgt.test/", bytes.NewReader(body))
			if err != nil {
				return nil // not a request a client can send
			}
			req.URL.Path = "/" + target
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if got := m.Resident(); got > maxResident {
				t.Fatalf("%s /%s: %d posteriors resident, MaxResident %d", method, target, got, maxResident)
			}
			return rec
		}
		for range 3 {
			if rec := send("POST", "v1/cohorts", []byte(create)); rec.Code != http.StatusCreated {
				t.Fatalf("seed cohort: %d %s", rec.Code, rec.Body)
			}
		}
		target = strings.TrimPrefix(target, "/")
		for range 2 {
			rec := send(method, target, body)
			if rec == nil {
				return
			}
			if rec.Code >= 500 && !(rec.Code == http.StatusServiceUnavailable && m.Ready() != nil) {
				t.Fatalf("%s /%s %q: status %d: %s", method, target, body, rec.Code, rec.Body)
			}
		}
	})
}
