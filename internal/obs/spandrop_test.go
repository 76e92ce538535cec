package obs

import "testing"

// TestSpanDropAccounting forces a tiny tracer window, overflows it, and
// checks the two contracts that make a bounded trace buffer usable in
// production: every eviction is counted (tracer tally and the exported
// counter agree), and Assemble still produces a well-formed partial tree
// from whatever survived — surviving children whose parent span is gone
// surface as extra roots instead of vanishing.
func TestSpanDropAccounting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(4)
	tr.SetDropCounter(reg.Counter("sbgt_obs_spans_dropped_total"))

	root := tr.Start("session")
	for i := 0; i < 10; i++ {
		root.Child("stage", A("stage", i)).End()
	}
	root.End()

	// 11 finished spans through a 4-slot window: 7 evicted.
	spans, dropped := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if dropped != 7 {
		t.Fatalf("dropped = %d, want 7", dropped)
	}
	if got := reg.Counter("sbgt_obs_spans_dropped_total").Value(); got != 7 {
		t.Fatalf("exported drop counter = %d, want 7", got)
	}

	// The window keeps the most recent spans: the last three stages plus
	// the root (which ended last).
	if spans[len(spans)-1].Name != "session" {
		t.Fatalf("newest span = %q, want the root", spans[len(spans)-1].Name)
	}

	// Assemble the partial window: one trace, rooted at the session span,
	// with the surviving stages attached to it.
	traces := Assemble(spans)
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	tree := traces[0]
	if tree.TraceID != root.Context().TraceID {
		t.Fatalf("trace ID = %x, want %x", tree.TraceID, root.Context().TraceID)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "session" {
		t.Fatalf("roots = %+v, want the single session root", tree.Roots)
	}
	if got := len(tree.Roots[0].Children); got != 3 {
		t.Fatalf("surviving children = %d, want 3", got)
	}
	for _, c := range tree.Roots[0].Children {
		if c.ParentID != tree.Roots[0].ID {
			t.Fatalf("child %q not parented under the root", c.Name)
		}
	}
}

// TestSpanDropOrphanedChildren drops the *root* out of the window (it
// ends first) and checks orphaned children still assemble as roots of a
// partial tree rather than disappearing.
func TestSpanDropOrphanedChildren(t *testing.T) {
	tr := NewTracer(2)
	root := tr.Start("session")
	rootCtx := root.Context()
	root.End() // recorded first, evicted first
	for i := 0; i < 4; i++ {
		c := tr.StartUnder("stage", rootCtx, A("stage", i))
		c.End()
	}
	spans, dropped := tr.Snapshot()
	if len(spans) != 2 || dropped != 3 {
		t.Fatalf("window = %d spans / %d dropped, want 2/3", len(spans), dropped)
	}
	traces := Assemble(spans)
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	// Both survivors lost their parent; each surfaces as a root.
	if got := len(traces[0].Roots); got != 2 {
		t.Fatalf("orphan roots = %d, want 2", got)
	}
	for _, r := range traces[0].Roots {
		if r.Name != "stage" {
			t.Fatalf("unexpected root %q", r.Name)
		}
	}
}
