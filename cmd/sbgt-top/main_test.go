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
// dump and no SLO evaluator: the frame must show the dump's self-time
// layer split (largest total first), the slowest http span's tree with
// each node's self time, and no SLO section.
func TestRenderAnomalyLayers(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sbgt_serve_requests_total").Add(3)
	tracer := obs.NewTracer(16)
	flight := obs.NewFlightRecorder(16)
	flight.Attach(tracer)
	ms := time.Millisecond
	tracer.Absorb(
		obs.SpanRecord{TraceID: 0xabc, ID: 2, ParentID: 1, Name: "restore", Duration: 7 * ms},
		obs.SpanRecord{TraceID: 0xabc, ID: 3, ParentID: 1, Name: "update", Duration: 2 * ms},
		obs.SpanRecord{TraceID: 0xabc, ID: 1, Name: "http", Duration: 10 * ms,
			Attrs: []obs.Attr{obs.A("tenant", "acme"), obs.A("cohort", "c1")}},
		obs.SpanRecord{TraceID: 0xdef, ID: 5, ParentID: 4, Name: "restore", Duration: 5 * ms},
		obs.SpanRecord{TraceID: 0xdef, ID: 4, Name: "http", Duration: 6 * ms},
	)
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
		"last anomaly: a000001 slo:p99_request at",
		"(5 spans captured, 0 coalesced)",
		"layer restore n=2 total=12ms max=7ms",
		"layer http n=2 total=2ms max=1ms",
		"layer update n=1 total=2ms max=2ms",
		"slowest request: trace=0000000000000abc",
		"http dur=10ms self=1ms tenant=acme cohort=c1",
		"restore dur=7ms self=7ms",
		"update dur=2ms self=2ms",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if r, q := strings.Index(flat, "layer restore"), strings.Index(flat, "layer http"); r > q {
		t.Errorf("layers not sorted by total:\n%s", out)
	}
	if strings.Contains(flat, "trace=0000000000000def") {
		t.Errorf("frame shows a faster request than the slowest:\n%s", out)
	}
	if strings.Contains(out, "SLO") {
		t.Errorf("SLO section rendered with no evaluator:\n%s", out)
	}
}
