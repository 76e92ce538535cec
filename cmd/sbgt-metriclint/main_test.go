package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestLintRules feeds lint one snapshot that breaks every rule once and
// one that breaks none: the contract scripts/serve_smoke.sh holds the
// live registry to.
func TestLintRules(t *testing.T) {
	tenant := func(v string) []obs.Label { return []obs.Label{obs.L("tenant", v)} }
	clean := &obs.Snapshot{
		Counters:   []obs.CounterSnapshot{{Name: "sbgt_serve_requests_total"}, {Name: "sbgt_serve_tenant_requests_total", Labels: tenant("a")}},
		Gauges:     []obs.GaugeSnapshot{{Name: "sbgt_serve_cohorts"}},
		Histograms: []obs.HistogramSnapshot{{Name: "sbgt_serve_request_seconds"}},
	}
	if got := lint(clean, 2); len(got) != 0 {
		t.Fatalf("clean snapshot flagged:\n%s", strings.Join(got, "\n"))
	}

	bad := &obs.Snapshot{
		Counters: []obs.CounterSnapshot{
			{Name: "requests_total"},
			{Name: "sbgt_serve_requests"},
			{Name: "sbgt_serve_errors_total", Labels: []obs.Label{obs.L("Tenant", "a")}},
		},
		Gauges:     []obs.GaugeSnapshot{{Name: "sbgt_serve_cohorts_total"}},
		Histograms: []obs.HistogramSnapshot{{Name: "sbgt_serve_request_millis"}},
	}
	for i := 0; i < 3; i++ {
		bad.Counters = append(bad.Counters, obs.CounterSnapshot{
			Name: "sbgt_serve_tenant_requests_total", Labels: tenant(fmt.Sprint(i))})
	}
	got := strings.Join(lint(bad, 2), "\n")
	for _, want := range []string{
		"counter requests_total: name must match",
		"counter sbgt_serve_requests: counter names must end in _total",
		`label key "Tenant" must match`,
		"gauge sbgt_serve_cohorts_total: _total is reserved for counters",
		"histogram sbgt_serve_request_millis: histogram names must end in a base unit",
		`sbgt_serve_tenant_requests_total: label "tenant" has 3 distinct values (max 2)`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing violation %q in:\n%s", want, got)
		}
	}
}
