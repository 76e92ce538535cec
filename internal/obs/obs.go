// Package obs is the observability core of the reproduction: a
// dependency-free, race-safe metrics registry (counters, gauges,
// fixed-bucket histograms with a lock-free sync/atomic hot path), a Span
// API for named timed regions with parent/child nesting, a flight
// recorder whose anomaly dumps freeze the tail of the span ring and total
// it as self time per span name, an SLO evaluator, a leveled structured logger
// built on log/slog, and one HTTP mux serving it all.
//
// SBGT's headline claims are throughput numbers; this package is how the
// repository sees where time and capacity go at runtime instead of
// relying on one-off benchmarks. The engine pool, the posterior backends
// (through posterior.Instrument), the cluster driver and executors, and
// core sessions all report into a Registry; the CLIs expose it with
// -metrics-addr, -log-level, and -trace-out.
//
// Each signal has one recorder and one way out of the process: a metric
// by /metrics (Prometheus text) or /metrics.json, a span by /spans or
// -trace-out, an anomaly dump by /debug/flight (SIGQUIT writes both of
// the last two), a profile by the /debug/pprof routes on the live
// listener or -cpuprofile / -memprofile on a batch command. Every family
// and span name has a named reader in DESIGN.md §9.5; a signal nobody
// reads is not registered.
//
// Everything is nil-tolerant by design: a nil *Registry hands out
// detached (functional but unexported) metrics, a nil *Tracer hands out
// spans that time but record nowhere, so instrumented code pays one nil
// check instead of branching at every call site.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one key=value metric dimension (e.g. backend="dense").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// fullName renders the canonical identity of a metric: the name followed
// by its labels sorted by key, in Prometheus notation. Two registrations
// with the same full name return the same metric.
func fullName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// validName reports whether name is a legal metric identifier
// ([a-zA-Z_:][a-zA-Z0-9_:]*), the Prometheus identifier grammar.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ExpBuckets returns n exponentially growing histogram upper bounds
// starting at start and multiplying by factor: the standard latency
// ladder. It panics on a non-positive start, a factor <= 1, or n < 1 —
// all programmer errors in metric declarations.
func ExpBuckets(start, factor float64, n int) []float64 {
	if !(start > 0) || !(factor > 1) || n < 1 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		//lint:allow floats growing bucket ladder (factor > 1); no probability-scale underflow
		v *= factor
	}
	return out
}

// LatencyBuckets is the default upper-bound ladder for operation
// latencies in seconds: 1µs up to ~260s, factor 4 per bucket.
var LatencyBuckets = ExpBuckets(1e-6, 4, 14)

// SizeBuckets is the default ladder for byte counts: 64 B to ~1 GiB.
var SizeBuckets = ExpBuckets(64, 8, 8)
