// Command sbgt-top is a terminal live view of a running sbgt-serve (or
// any sbgt process serving the obs mux): it polls /metrics.json and
// /debug/flight and renders per-tenant throughput, residency, SLO burn
// and the most recent anomaly dump — its per-layer self-time split
// (which span name the window's time went to) above the slowest served
// request's span tree, each node with its self time.
//
// Usage:
//
//	sbgt-top -target http://127.0.0.1:8344
//
// Flags:
//
//	-target string      base URL of the server (default http://127.0.0.1:8344)
//	-interval duration  refresh period (default 2s)
//	-once               render a single frame and exit (for scripts/smoke)
//
// Rates are computed from counter deltas between consecutive polls, so
// the first frame shows totals and later frames show per-second rates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:8344", "base URL of the server")
		interval = flag.Duration("interval", 2*time.Second, "refresh period")
		once     = flag.Bool("once", false, "render a single frame and exit")
	)
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	var prev *frame
	for {
		f, err := poll(client, *target)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbgt-top:", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, f, prev)
		if *once {
			return
		}
		prev = f
		time.Sleep(*interval)
	}
}

// frame is one poll's worth of server state.
type frame struct {
	at      time.Time
	metrics *obs.Snapshot
	flight  *obs.FlightSnapshot
}

func poll(client *http.Client, target string) (*frame, error) {
	f := &frame{at: time.Now(), metrics: &obs.Snapshot{}, flight: &obs.FlightSnapshot{}}
	if err := getJSON(client, target+"/metrics.json", f.metrics); err != nil {
		return nil, err
	}
	if err := getJSON(client, target+"/debug/flight", f.flight); err != nil {
		return nil, err
	}
	return f, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counter finds a counter value by name + optional tenant label.
func counter(s *obs.Snapshot, name, tenant string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		if tenant == "" && len(c.Labels) == 0 {
			return c.Value, true
		}
		for _, l := range c.Labels {
			if l.Key == "tenant" && l.Value == tenant {
				return c.Value, true
			}
		}
	}
	return 0, false
}

func gauge(s *obs.Snapshot, name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && len(g.Labels) == 0 {
			return g.Value, true
		}
	}
	return 0, false
}

// quantile estimates q from cumulative histogram buckets with linear
// interpolation inside the landing bucket (the Prometheus estimator).
func quantile(h *obs.HistogramSnapshot, q float64) float64 {
	if len(h.Buckets) == 0 || h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	lowerBound, lowerCount := 0.0, 0.0
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return lowerBound
			}
			inBucket := float64(b.Count) - lowerCount
			if inBucket <= 0 {
				return b.UpperBound
			}
			return lowerBound + (b.UpperBound-lowerBound)*(rank-lowerCount)/inBucket
		}
		lowerBound, lowerCount = b.UpperBound, float64(b.Count)
	}
	return lowerBound
}

// tenantRow is one line of the per-tenant table.
type tenantRow struct {
	name     string
	requests uint64
	errors   uint64
	p99      float64
}

func tenantRows(s *obs.Snapshot) []tenantRow {
	byName := map[string]*tenantRow{}
	for _, c := range s.Counters {
		if c.Name != "sbgt_serve_tenant_requests_total" && c.Name != "sbgt_serve_tenant_errors_total" {
			continue
		}
		for _, l := range c.Labels {
			if l.Key != "tenant" {
				continue
			}
			r := byName[l.Value]
			if r == nil {
				r = &tenantRow{name: l.Value}
				byName[l.Value] = r
			}
			if c.Name == "sbgt_serve_tenant_requests_total" {
				r.requests = c.Value
			} else {
				r.errors = c.Value
			}
		}
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		if h.Name != "sbgt_serve_tenant_request_seconds" {
			continue
		}
		for _, l := range h.Labels {
			if l.Key == "tenant" {
				if r := byName[l.Value]; r != nil {
					r.p99 = quantile(h, 0.99)
				}
			}
		}
	}
	out := make([]tenantRow, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].requests > out[j].requests })
	return out
}

func render(w io.Writer, f, prev *frame) {
	fmt.Fprintf(w, "sbgt-top · %s\n\n", f.at.Format("15:04:05"))

	// Headline: aggregate throughput, residency, process health.
	reqs, _ := counter(f.metrics, "sbgt_serve_requests_total", "")
	shed, _ := counter(f.metrics, "sbgt_serve_requests_shed_total", "")
	if prev != nil {
		dt := f.at.Sub(prev.at).Seconds()
		preqs, _ := counter(prev.metrics, "sbgt_serve_requests_total", "")
		pshed, _ := counter(prev.metrics, "sbgt_serve_requests_shed_total", "")
		if dt > 0 {
			fmt.Fprintf(w, "requests %d (%.0f/s)   shed %d (%.0f/s)\n",
				reqs, float64(reqs-preqs)/dt, shed, float64(shed-pshed)/dt)
		}
	} else {
		fmt.Fprintf(w, "requests %d   shed %d\n", reqs, shed)
	}
	if res, ok := gauge(f.metrics, "sbgt_serve_cohorts_resident"); ok {
		total, _ := gauge(f.metrics, "sbgt_serve_cohorts")
		fmt.Fprintf(w, "cohorts %d resident / %d total\n", int(res), int(total))
	}
	if gr, ok := gauge(f.metrics, "sbgt_go_goroutines"); ok {
		heap, _ := gauge(f.metrics, "sbgt_go_heap_inuse_bytes")
		fmt.Fprintf(w, "goroutines %d   heap %.1f MiB\n", int(gr), heap/(1<<20))
	}

	// SLO burn gauges, if an evaluator is running.
	var slo []string
	for _, g := range f.metrics.Gauges {
		if g.Name != "sbgt_slo_burn_ratio" {
			continue
		}
		name := "?"
		for _, l := range g.Labels {
			if l.Key == "objective" {
				name = l.Value
			}
		}
		mark := ""
		if g.Value > 1 {
			mark = "  BREACHED"
		}
		slo = append(slo, fmt.Sprintf("  %-20s burn %.2f%s", name, g.Value, mark))
	}
	if len(slo) > 0 {
		sort.Strings(slo)
		fmt.Fprintf(w, "\nSLO\n%s\n", strings.Join(slo, "\n"))
	}

	// Per-tenant RED table.
	rows := tenantRows(f.metrics)
	if len(rows) > 0 {
		fmt.Fprintf(w, "\n%-16s %10s %8s %10s\n", "TENANT", "REQUESTS", "ERRORS", "P99")
		for _, r := range rows {
			fmt.Fprintf(w, "%-16s %10d %8d %9.1fms\n", r.name, r.requests, r.errors, r.p99*1e3)
		}
	}

	// Flight recorder: the most recent anomaly dump.
	fmt.Fprintf(w, "\nflight: %d anomaly dumps\n", len(f.flight.Anomalies))
	if n := len(f.flight.Anomalies); n > 0 {
		d := f.flight.Anomalies[n-1]
		fmt.Fprintf(w, "last anomaly: %s %s at %s (%d spans captured, %d coalesced)\n",
			d.ID, d.Reason, d.Time.Format("15:04:05"), len(d.Spans), d.Coalesced)
		// Where the window's time went, largest layer first: self time per
		// span name, so a request's layers add up to its duration.
		for _, l := range d.Layers {
			fmt.Fprintf(w, "  layer %-14s n=%-5d total=%-12v max=%v\n", l.Name, l.Count, l.Total, l.Max)
		}
		writeSlowest(w, d.Spans)
	}
}

// writeSlowest prints the slowest http span among spans as a tree, each
// node with its duration and self time.
func writeSlowest(w io.Writer, spans []obs.SpanRecord) {
	var root *obs.TraceNode
	for _, tr := range obs.Assemble(spans) {
		for _, r := range tr.Roots {
			if r.Name == "http" && (root == nil || r.Duration > root.Duration) {
				root = r
			}
		}
	}
	if root == nil {
		return
	}
	self := obs.SelfTimes(spans)
	fmt.Fprintf(w, "slowest request: trace=%016x\n", root.TraceID)
	(&obs.Trace{Roots: []*obs.TraceNode{root}}).Walk(func(depth int, n *obs.TraceNode) {
		line := fmt.Sprintf("%s%-12s dur=%-10v self=%v", strings.Repeat("  ", depth+1), n.Name, n.Duration, self[n.ID])
		for _, a := range n.Attrs {
			line += fmt.Sprintf(" %s=%v", a.Key, a.Value)
		}
		fmt.Fprintln(w, line)
	})
}
