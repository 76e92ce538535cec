package obs

import (
	"strings"
	"testing"
	"time"
)

func TestAssembleSingleProcess(t *testing.T) {
	tr := NewTracer(64)
	root := tr.Start("session")
	stage := root.Child("stage", A("stage", 1))
	sel := stage.Child("select")
	sel.End()
	upd := stage.Child("update")
	upd.End()
	stage.End()
	root.End()

	traces := Assemble(snap(tr))
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Spans() != 4 {
		t.Fatalf("trace holds %d spans, want 4", got.Spans())
	}
	if len(got.Roots) != 1 || got.Roots[0].Name != "session" {
		t.Fatalf("roots = %+v", got.Roots)
	}
	stageNode := got.Roots[0].Children[0]
	if stageNode.Name != "stage" || len(stageNode.Children) != 2 {
		t.Fatalf("stage node = %+v", stageNode)
	}
	if stageNode.Children[0].Name != "select" || stageNode.Children[1].Name != "update" {
		t.Fatalf("stage children out of order: %s, %s", stageNode.Children[0].Name, stageNode.Children[1].Name)
	}
	if got.Find("select") == nil || got.Find("missing") != nil {
		t.Fatal("Find misbehaved")
	}
}

func TestAssembleCrossProcess(t *testing.T) {
	// Driver and executor tracers are independent (distinct ID seeds); the
	// executor parents its span under the propagated context.
	driver := NewTracer(64)
	executor := NewTracer(64)

	rpc := driver.Start("rpc:update-mul")
	ctx, err := ParseTraceContext(rpc.Context().Encode())
	if err != nil {
		t.Fatal(err)
	}
	remote := executor.StartUnder("exec:update-mul", ctx)
	kernel := remote.Child("kernel")
	kernel.End()
	remote.End()
	// The executor ships its records back; the driver absorbs them.
	rec, ok := remote.Record()
	if !ok {
		t.Fatal("ended span has no record")
	}
	krec, _ := kernel.Record()
	driver.Absorb(rec, krec)
	rpc.End()

	traces := Assemble(snap(driver))
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != ctx.TraceID {
		t.Fatalf("trace id %x, want %x", tr.TraceID, ctx.TraceID)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "rpc:update-mul" {
		t.Fatalf("roots = %+v", tr.Roots)
	}
	execNode := tr.Roots[0].Children[0]
	if execNode.Name != "exec:update-mul" || len(execNode.Children) != 1 || execNode.Children[0].Name != "kernel" {
		t.Fatalf("executor subtree = %+v", execNode)
	}
	// Re-absorbing the same records must not duplicate nodes.
	traces = Assemble([]SpanRecord{rpc.rec, rec, krec}, []SpanRecord{rec, krec})
	if traces[0].Spans() != 3 {
		t.Fatalf("dedup failed: %d spans, want 3", traces[0].Spans())
	}
}

func TestAssembleOrphansAndZeroTrace(t *testing.T) {
	orphan := SpanRecord{TraceID: 42, ID: 7, ParentID: 99, Name: "orphan", Start: time.Unix(10, 0)}
	anon := SpanRecord{Name: "anon", Start: time.Unix(5, 0)}
	anon2 := SpanRecord{Name: "anon2", Start: time.Unix(6, 0)}
	traces := Assemble([]SpanRecord{orphan, anon, anon2})
	if len(traces) != 2 {
		t.Fatalf("assembled %d traces, want 2", len(traces))
	}
	// Oldest first: the zero-trace group starts at t=5.
	if traces[0].TraceID != 0 || len(traces[0].Roots) != 2 {
		t.Fatalf("zero trace = %+v", traces[0])
	}
	if traces[1].TraceID != 42 || len(traces[1].Roots) != 1 || traces[1].Roots[0].Name != "orphan" {
		t.Fatalf("orphan trace = %+v", traces[1])
	}
}

func TestTraceWriteText(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("session")
	c := root.Child("stage", A("stage", 2))
	c.End()
	root.End()
	traces := Assemble(snap(tr))
	var sb strings.Builder
	if err := traces[0].WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"trace ", "session", "  stage", "stage=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}
