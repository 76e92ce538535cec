package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/obs"
)

// dialTraced starts a local cluster and dials it with a tracer attached.
func dialTraced(t *testing.T, k int, risks []float64, tracer *obs.Tracer) (*Model, func()) {
	t.Helper()
	addrs, stop, err := StartLocalObs(k, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DialWith(addrs, risks, dilution.Binary{Sens: 0.95, Spec: 0.99},
		DialOptions{Timeout: 5 * time.Second, Tracer: tracer})
	if err != nil {
		stop()
		t.Fatal(err)
	}
	return m, func() { m.Close(); stop() }
}

// TestRPCTracePropagation pins the distributed-tracing contract of the
// protocol: once a parent context is installed, every fan-out RPC emits a
// driver-side rpc:<op> span, the executor opens exec:<op> + kernel spans
// under the propagated context, and the trailer ships them back — so the
// driver's tracer alone assembles into one tree rooted at the parent.
func TestRPCTracePropagation(t *testing.T) {
	tracer := obs.NewTracer(0)
	m, cleanup := dialTraced(t, 2, []float64{0.05, 0.2, 0.1}, tracer)
	defer cleanup()

	root := tracer.Start("session")
	m.SetTraceContext(root.Context())
	if err := m.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Marginals(); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans, dropped := tracer.Snapshot()
	if dropped != 0 {
		t.Fatalf("tracer dropped %d spans", dropped)
	}
	traces := obs.Assemble(spans)
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1: %+v", len(traces), traces)
	}
	tr := traces[0]
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "session" {
		t.Fatalf("trace roots = %+v, want single session root", tr.Roots)
	}
	// Update is one update-mul round (its normaliser is carried, not
	// applied) and Marginals none: the round's responses carry the marginal
	// partials, so the OpMarginals round that used to follow is gone. The one
	// round fans out to 2 executors, so 2 rpc spans each holding one exec
	// span with one kernel child.
	var rpcs, execs, kernels int
	tr.Walk(func(depth int, n *obs.TraceNode) {
		switch {
		case strings.HasPrefix(n.Name, "rpc:"):
			rpcs++
			if depth != 1 {
				t.Errorf("rpc span %s at depth %d, want 1", n.Name, depth)
			}
			if len(n.Children) != 1 || !strings.HasPrefix(n.Children[0].Name, "exec:") {
				t.Errorf("rpc span %s children = %+v, want one exec child", n.Name, n.Children)
			}
		case strings.HasPrefix(n.Name, "exec:"):
			execs++
			if len(n.Children) != 1 || n.Children[0].Name != "kernel" {
				t.Errorf("exec span %s children = %+v, want one kernel child", n.Name, n.Children)
			}
		case n.Name == "kernel":
			kernels++
		}
	})
	if rpcs != 2 || execs != 2 || kernels != 2 {
		t.Errorf("span counts rpc=%d exec=%d kernel=%d, want 2 each", rpcs, execs, kernels)
	}
	if tr.TraceID != root.Context().TraceID {
		t.Errorf("assembled trace ID %x, want %x", tr.TraceID, root.Context().TraceID)
	}
	tr.Walk(func(_ int, n *obs.TraceNode) {
		if n.TraceID != root.Context().TraceID {
			t.Errorf("span %s carries trace %x, want %x", n.Name, n.TraceID, root.Context().TraceID)
		}
	})
}

// TestRPCUntracedByDefault: with no parent context installed (or after it
// is cleared), requests go out untraced and the tracer stays empty — the
// protocol must not pay for tracing nobody asked for.
func TestRPCUntracedByDefault(t *testing.T) {
	tracer := obs.NewTracer(0)
	m, cleanup := dialTraced(t, 2, []float64{0.05, 0.2}, tracer)
	defer cleanup()

	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	if spans, _ := tracer.Snapshot(); len(spans) != 0 {
		t.Fatalf("untraced ping recorded %d spans: %+v", len(spans), spans)
	}

	// Clearing the context mid-life turns tracing back off.
	root := tracer.Start("session")
	m.SetTraceContext(root.Context())
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	m.SetTraceContext(obs.TraceContext{})
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans, _ := tracer.Snapshot()
	var pings int
	for _, rec := range spans {
		if rec.Name == "rpc:ping" || rec.Name == "exec:ping" {
			pings++
		}
	}
	if pings != 2*2 { // one traced ping round × 2 executors × (rpc + exec)
		t.Fatalf("traced-ping span count = %d, want 4", pings)
	}
}

// TestConditionKeepsTracer: the reduced model returned by Condition must
// keep emitting spans into the same trace.
func TestConditionKeepsTracer(t *testing.T) {
	tracer := obs.NewTracer(0)
	m, cleanup := dialTraced(t, 2, []float64{0.05, 0.2, 0.1}, tracer)
	defer cleanup()

	root := tracer.Start("session")
	m.SetTraceContext(root.Context())
	next, err := m.Condition(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if _, err := next.PrefixNegMasses([]int{1, 0}); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans, _ := tracer.Snapshot()
	traces := obs.Assemble(spans)
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	if traces[0].Find("rpc:prefix-scan") == nil {
		t.Error("the reduced model's first RPC is missing from the trace")
	}
	for _, name := range []string{"rpc:collapse", "exec:collapse"} {
		if traces[0].Find(name) == nil {
			t.Errorf("Condition's %s span missing from the trace", name)
		}
	}
	// Subject 0 is negative at probability 0.95: a threshold crossing, whose
	// mass is never preflighted.
	if traces[0].Find("rpc:sum-where") != nil {
		t.Error("a condition held above ½ sent a sum-where preflight")
	}
}

// benchSelectPath measures the distributed pool-selection hot path (the
// NegMasses sweep) with tracing on or off, for the RPC-overhead budget.
// n sets the cohort size: 14 is a deliberately small lattice where the
// fixed per-RPC tracing cost is most visible; 16 is the sbgt CLI default
// and the representative campaign size.
func benchSelectPath(b *testing.B, n int, traced bool) {
	addrs, stop, err := StartLocalObs(2, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.02 + 0.01*float64(i%5)
	}
	opts := DialOptions{Timeout: 5 * time.Second}
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer(1024)
		opts.Tracer = tracer
	}
	m, err := DialWith(addrs, risks, dilution.Binary{Sens: 0.95, Spec: 0.99}, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	if traced {
		root := tracer.Start("bench")
		defer root.End()
		m.SetTraceContext(root.Context())
	}
	cands := make([]bitvec.Mask, 32)
	for i := range cands {
		cands[i] = bitvec.Mask(uint64(i)*2654435761%(1<<uint(n))) | 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.NegMasses(cands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNegMassesUntraced(b *testing.B)   { benchSelectPath(b, 14, false) }
func BenchmarkNegMassesTraced(b *testing.B)     { benchSelectPath(b, 14, true) }
func BenchmarkNegMasses16Untraced(b *testing.B) { benchSelectPath(b, 16, false) }
func BenchmarkNegMasses16Traced(b *testing.B)   { benchSelectPath(b, 16, true) }
