package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRenderAnomalyLayers polls a live obs mux that holds one anomaly
// dump and no SLO evaluator: the frame must show the dump's layer split
// (largest total first), each tail event's duration, and no SLO section.
func TestRenderAnomalyLayers(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sbgt_serve_requests_total").Add(3)
	flight := obs.NewFlightRecorder(16)
	for _, ev := range []obs.Event{
		{Kind: "restore", Tenant: "acme", Cohort: "c1", Dur: 7 * time.Millisecond},
		{Kind: "stage_absorb", Tenant: "acme", Cohort: "c1", TraceID: 0xabc, Dur: 2 * time.Millisecond},
		{Kind: "request", Tenant: "acme", Cohort: "c1", TraceID: 0xabc, Dur: 10 * time.Millisecond},
		{Kind: "restore", Tenant: "acme", Cohort: "c2", Dur: 5 * time.Millisecond},
	} {
		flight.Record(ev)
	}
	if !flight.TriggerAnomaly("slo:p99_request") {
		t.Fatal("no dump captured")
	}
	srv := httptest.NewServer(obs.NewMux(obs.MuxConfig{Reg: reg, Flight: flight}))
	defer srv.Close()

	f, err := poll(&http.Client{Timeout: 5 * time.Second}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	render(&buf, f, nil)
	out := buf.String()

	// Collapse the column padding so the assertions read as the line does.
	flat := strings.Join(strings.Fields(out), " ")
	for _, want := range []string{
		"requests 3 shed 0",
		"last anomaly: a000001 slo:p99_request",
		"layer restore n=2 total=12ms max=7ms",
		"layer request n=1 total=10ms max=10ms",
		"layer stage_absorb n=1 total=2ms max=2ms",
		"request tenant=acme cohort=c1 trace=0000000000000abc dur=10ms",
		"restore tenant=acme cohort=c2 dur=5ms",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if r, q := strings.Index(flat, "layer restore"), strings.Index(flat, "layer request"); r > q {
		t.Errorf("layers not sorted by total:\n%s", out)
	}
	if strings.Contains(out, "SLO") {
		t.Errorf("SLO section rendered with no evaluator:\n%s", out)
	}
}
