package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// snap is the tracer's buffered window (Snapshot without the drop count).
func snap(tr *Tracer) []SpanRecord {
	spans, _ := tr.Snapshot()
	return spans
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(16)
	stage := tr.Start("stage", A("stage", 1))
	sel := stage.Child("select")
	time.Sleep(time.Millisecond)
	if d := sel.End(); d < time.Millisecond {
		t.Fatalf("child span measured %v", d)
	}
	upd := stage.Child("update")
	upd.SetAttr("op", "update")
	upd.End()
	stage.End()

	spans := snap(tr)
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	// Children finish before the parent.
	if spans[0].Name != "select" || spans[1].Name != "update" || spans[2].Name != "stage" {
		t.Fatalf("span order = %v", []string{spans[0].Name, spans[1].Name, spans[2].Name})
	}
	parentID := spans[2].ID
	for _, child := range spans[:2] {
		if child.ParentID != parentID {
			t.Errorf("span %s parent = %d, want %d", child.Name, child.ParentID, parentID)
		}
	}
	if spans[2].ParentID != 0 {
		t.Errorf("root span has parent %d", spans[2].ParentID)
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0].Key != "op" {
		t.Errorf("update span attrs = %+v", spans[1].Attrs)
	}
	if len(snap(tr)) != 3 {
		t.Error("a snapshot consumed the ring")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(4)
	s := tr.Start("once")
	s.End()
	s.End()
	if got := len(snap(tr)); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

func TestNilTracerSpansStillTime(t *testing.T) {
	var tr *Tracer
	s := tr.Start("free", A("k", "v"))
	c := s.Child("child")
	time.Sleep(time.Millisecond)
	if d := c.End(); d < time.Millisecond {
		t.Fatalf("nil-tracer child measured %v", d)
	}
	if d := s.End(); d < time.Millisecond {
		t.Fatalf("nil-tracer span measured %v", d)
	}
	if spans, dropped := tr.Snapshot(); spans != nil || dropped != 0 {
		t.Error("nil tracer retained spans")
	}
	if err := tr.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Start("s").End()
	}
	spans, dropped := tr.Snapshot()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if got := len(spans); got != 3 {
		t.Fatalf("retained = %d, want 3", got)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(8)
	tr.Start("alpha", A("n", 1)).End()
	tr.Start("beta").End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "alpha" {
		t.Fatalf("first record = %+v", rec)
	}
	// WriteJSON does not consume the ring.
	if got := len(snap(tr)); got != 2 {
		t.Fatalf("WriteJSON consumed the ring: %d left", got)
	}
}

func TestSpanTraceIdentity(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("root")
	child := root.Child("child")
	if !root.Context().Valid() {
		t.Fatal("root context invalid")
	}
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child left the parent's trace")
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Fatal("child shares the parent's span id")
	}
	other := tr.Start("other")
	if other.Context().TraceID == root.Context().TraceID {
		t.Fatal("independent roots share a trace id")
	}
	child.End()
	root.End()
	other.End()
	for _, rec := range snap(tr) {
		if rec.TraceID == 0 || rec.ID == 0 {
			t.Fatalf("record %q missing ids: %+v", rec.Name, rec)
		}
	}
}

func TestStartUnder(t *testing.T) {
	parent := TraceContext{TraceID: 0xfeed, SpanID: 0xbeef}
	tr := NewTracer(16)
	s := tr.StartUnder("remote", parent)
	if got := s.Context().TraceID; got != parent.TraceID {
		t.Fatalf("StartUnder trace id %x, want %x", got, parent.TraceID)
	}
	s.End()
	rec, ok := s.Record()
	if !ok || rec.ParentID != parent.SpanID || rec.TraceID != parent.TraceID {
		t.Fatalf("record = %+v, ok=%v", rec, ok)
	}
	// An invalid parent degrades to a fresh root trace.
	fresh := tr.StartUnder("fresh", TraceContext{})
	if fresh.Context().TraceID == 0 || fresh.parent != 0 {
		t.Fatalf("invalid parent produced %+v", fresh.Context())
	}
	fresh.End()
}

func TestSpanRecordBeforeEnd(t *testing.T) {
	tr := NewTracer(4)
	s := tr.Start("open")
	if _, ok := s.Record(); ok {
		t.Fatal("unended span has a record")
	}
	s.End()
	if rec, ok := s.Record(); !ok || rec.Name != "open" {
		t.Fatalf("record = %+v, ok=%v", rec, ok)
	}
}

func TestTracerAbsorbAndSnapshot(t *testing.T) {
	tr := NewTracer(2)
	tr.Absorb(SpanRecord{ID: 1, Name: "a"}, SpanRecord{ID: 2, Name: "b"}, SpanRecord{ID: 3, Name: "c"})
	spans, dropped := tr.Snapshot()
	if len(spans) != 2 || dropped != 1 {
		t.Fatalf("snapshot = %d spans, %d dropped; want 2, 1", len(spans), dropped)
	}
	if spans[0].Name != "b" || spans[1].Name != "c" {
		t.Fatalf("retained %q, %q; want newest two", spans[0].Name, spans[1].Name)
	}
	// Snapshot does not consume the ring.
	if got := len(snap(tr)); got != 2 {
		t.Fatalf("second snapshot = %d", got)
	}
	var nilTracer *Tracer
	nilTracer.Absorb(SpanRecord{ID: 9})
	if s, d := nilTracer.Snapshot(); s != nil || d != 0 {
		t.Fatal("nil tracer snapshot non-empty")
	}
}

func TestTracerDropCounter(t *testing.T) {
	tr := NewTracer(2)
	c := new(Counter)
	tr.SetDropCounter(c)
	for i := 0; i < 5; i++ {
		tr.Start("s").End()
	}
	if got := c.Value(); got != 3 {
		t.Fatalf("drop counter = %d, want 3", got)
	}
	if _, dropped := tr.Snapshot(); dropped != 3 {
		t.Fatalf("tracer tally = %d, want 3", dropped)
	}
	var nilTracer *Tracer
	nilTracer.SetDropCounter(c) // must not panic
}
