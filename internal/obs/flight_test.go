package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// attached returns a recorder keeping limit spans of a fresh tracer.
func attached(limit int) (*FlightRecorder, *Tracer) {
	tr := NewTracer(0)
	r := NewFlightRecorder(limit)
	r.Attach(tr)
	return r, tr
}

// dump triggers one dump and returns it.
func dump(t *testing.T, r *FlightRecorder, reason string) AnomalyDump {
	t.Helper()
	if !r.TriggerAnomaly(reason) {
		t.Fatalf("trigger %q suppressed", reason)
	}
	d := r.Anomalies()
	return d[len(d)-1]
}

func TestFlightRecorderRingBound(t *testing.T) {
	r, tr := attached(8)
	for i := 0; i < 20; i++ {
		tr.Start(fmt.Sprintf("ev%d", i)).End()
	}
	d := dump(t, r, "x")
	if len(d.Spans) != 8 {
		t.Fatalf("dump holds %d spans, want 8", len(d.Spans))
	}
	// The window is the most recent 8, oldest first.
	for i, s := range d.Spans {
		if want := fmt.Sprintf("ev%d", 12+i); s.Name != want {
			t.Fatalf("spans[%d].Name = %q, want %q", i, s.Name, want)
		}
	}
}

func TestFlightRecorderPartialWindow(t *testing.T) {
	r, tr := attached(16)
	tr.Start("a").End()
	tr.Start("b").End()
	d := dump(t, r, "x")
	if len(d.Spans) != 2 || d.Spans[0].Name != "a" || d.Spans[1].Name != "b" {
		t.Fatalf("dump spans = %+v, want a, b", d.Spans)
	}
	// With no tracer attached a dump still fires, with an empty window.
	if d := dump(t, NewFlightRecorder(16), "x"); d.Spans == nil || len(d.Spans) != 0 || len(d.Layers) != 0 {
		t.Fatalf("unattached dump = %+v", d)
	}
}

// TestFlightRecorderConcurrent: writers end spans while a reader triggers
// dumps and renders them; nothing tears or panics under race, and every
// dump holds a full window once the ring has filled.
func TestFlightRecorderConcurrent(t *testing.T) {
	r, tr := attached(64)
	r.SetCooldown(0)
	r.Instrument(NewRegistry())
	var writers sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				root := tr.Start("w", A("g", g))
				root.Child("c", A("i", i)).End()
				root.End()
			}
		}(g)
	}
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.TriggerAnomaly("race")
				if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	d := dump(t, r, "after")
	if len(d.Spans) != 64 {
		t.Fatalf("dump holds %d spans, want 64", len(d.Spans))
	}
}

func TestTriggerAnomalyCooldownCoalescing(t *testing.T) {
	r, tr := attached(8)
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	r.SetCooldown(time.Minute)
	tr.Start("http", A("tenant", "acme"), A("cohort", "c1")).End()

	if !r.TriggerAnomaly("p99_breach", A("burn", 2.5)) {
		t.Fatal("first trigger should dump")
	}
	// Repeats inside the cooldown coalesce into the first dump.
	for i := 0; i < 3; i++ {
		now = now.Add(10 * time.Second)
		if r.TriggerAnomaly("p99_breach") {
			t.Fatalf("trigger %d inside cooldown should coalesce", i)
		}
	}
	// A different reason is independent.
	if !r.TriggerAnomaly("shed_burst") {
		t.Fatal("distinct reason should dump")
	}
	// Past the cooldown the same reason dumps again.
	now = now.Add(2 * time.Minute)
	if !r.TriggerAnomaly("p99_breach") {
		t.Fatal("trigger after cooldown should dump")
	}

	dumps := r.Anomalies()
	if len(dumps) != 3 {
		t.Fatalf("retained %d dumps, want 3", len(dumps))
	}
	first := dumps[0]
	if first.Reason != "p99_breach" || first.Coalesced != 3 {
		t.Fatalf("first dump = %q coalesced=%d, want p99_breach/3", first.Reason, first.Coalesced)
	}
	if len(first.Spans) != 1 || first.Spans[0].Name != "http" || first.Spans[0].TraceID == 0 {
		t.Fatalf("dump did not freeze the ring: %+v", first.Spans)
	}
	if len(first.Attrs) != 1 || first.Attrs[0].Key != "burn" {
		t.Fatalf("dump attrs = %+v", first.Attrs)
	}
}

func TestAnomalyDumpRetentionBound(t *testing.T) {
	r := NewFlightRecorder(4)
	r.SetCooldown(0)
	for i := 0; i < maxAnomalyDumps+3; i++ {
		if !r.TriggerAnomaly(fmt.Sprintf("reason%d", i)) {
			t.Fatalf("trigger %d suppressed with zero cooldown", i)
		}
	}
	dumps := r.Anomalies()
	if len(dumps) != maxAnomalyDumps {
		t.Fatalf("retained %d dumps, want %d", len(dumps), maxAnomalyDumps)
	}
	if got, want := dumps[len(dumps)-1].Reason, fmt.Sprintf("reason%d", maxAnomalyDumps+2); got != want {
		t.Fatalf("newest dump = %q, want %q", got, want)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var r *FlightRecorder
	r.Attach(NewTracer(0))
	r.Instrument(NewRegistry())
	r.SetCooldown(time.Second)
	r.SetClock(time.Now)
	r.LogDumps(NopLogger())
	if r.TriggerAnomaly("x") {
		t.Fatal("nil recorder dumped")
	}
	if len(r.Anomalies()) != 0 {
		t.Fatal("nil recorder retained state")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil || snap.Anomalies == nil {
		t.Fatalf("nil recorder document %q must hold an empty anomalies list (%v)", buf.String(), err)
	}
}

// TestSelfTimesAddUp: over a sequential tree the self times sum to the
// root's duration exactly; children that overlap (a fan-out) clamp their
// parent's self time at zero instead of going negative.
func TestSelfTimesAddUp(t *testing.T) {
	ms := time.Millisecond
	seq := []SpanRecord{
		{ID: 1, Name: "http", Duration: 10 * ms},
		{ID: 2, ParentID: 1, Name: "lock_wait", Duration: 1 * ms},
		{ID: 3, ParentID: 1, Name: "update", Duration: 4 * ms},
		{ID: 4, ParentID: 3, Name: "rpc:update_mul", Duration: 3 * ms},
		{ID: 5, ParentID: 1, Name: "checkpoint", Duration: 2 * ms},
		{ID: 6, ParentID: 99, Name: "orphan", Duration: 5 * ms}, // parent outside the window
	}
	self := SelfTimes(seq)
	want := map[uint64]time.Duration{1: 3 * ms, 2: 1 * ms, 3: 1 * ms, 4: 3 * ms, 5: 2 * ms, 6: 5 * ms}
	var tree time.Duration
	for id, d := range want {
		if self[id] != d {
			t.Errorf("self[%d] = %v, want %v", id, self[id], d)
		}
		if id != 6 {
			tree += self[id]
		}
	}
	if tree != seq[0].Duration {
		t.Errorf("tree self times sum to %v, root lasted %v", tree, seq[0].Duration)
	}
	fan := []SpanRecord{
		{ID: 1, Name: "select", Duration: 4 * ms},
		{ID: 2, ParentID: 1, Name: "rpc:prefix_scan", Duration: 3 * ms},
		{ID: 3, ParentID: 1, Name: "rpc:prefix_scan", Duration: 3 * ms},
	}
	if got := SelfTimes(fan)[1]; got != 0 {
		t.Errorf("fan-out parent self = %v, want 0", got)
	}
}

func TestFlightWriteJSONShape(t *testing.T) {
	r, tr := attached(4)
	var logged bytes.Buffer
	r.LogDumps(NewLogger(&logged, slog.LevelError, ""))
	tr.Absorb(
		SpanRecord{TraceID: 7, ID: 2, ParentID: 1, Name: "checkpoint", Duration: 3 * time.Millisecond},
		SpanRecord{TraceID: 7, ID: 1, Name: "http", Duration: 10 * time.Millisecond},
	)
	r.TriggerAnomaly("absorb_failure", A("err", "boom"))
	// The dump names its layers, by self time, in the log line and in the
	// JSON.
	if !strings.Contains(logged.String(), `layers="http=7ms/1 checkpoint=3ms/1"`) {
		t.Errorf("LogDumps line lacks the layer split: %s", logged.String())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(snap.Anomalies) != 1 || snap.Anomalies[0].Reason != "absorb_failure" {
		t.Fatalf("round-tripped anomalies = %+v", snap.Anomalies)
	}
	d := snap.Anomalies[0]
	if len(d.Spans) != 2 || d.Spans[1].Name != "http" || d.Spans[1].Duration != 10*time.Millisecond {
		t.Fatalf("round-tripped spans = %+v", d.Spans)
	}
	want := []LayerTotal{
		{Name: "http", Count: 1, Total: 7 * time.Millisecond, Max: 7 * time.Millisecond},
		{Name: "checkpoint", Count: 1, Total: 3 * time.Millisecond, Max: 3 * time.Millisecond},
	}
	if fmt.Sprint(d.Layers) != fmt.Sprint(want) {
		t.Fatalf("round-tripped layers = %+v, want %+v", d.Layers, want)
	}
}

func TestFlightInstrumentCounters(t *testing.T) {
	reg := NewRegistry()
	r := NewFlightRecorder(4)
	r.Instrument(reg)
	r.SetCooldown(time.Hour)
	r.TriggerAnomaly("x")
	r.TriggerAnomaly("x") // coalesced
	if got := reg.Counter("sbgt_obs_flight_dumps_total").Value(); got != 1 {
		t.Fatalf("dumps counter = %d, want 1", got)
	}
	if got := reg.Counter("sbgt_obs_flight_dumps_coalesced_total").Value(); got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
}
