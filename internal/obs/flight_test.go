package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingBound(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: fmt.Sprintf("ev%d", i)})
	}
	snap := r.Snapshot()
	if len(snap.Events) != 8 {
		t.Fatalf("retained %d events, want 8", len(snap.Events))
	}
	if snap.Dropped != 12 {
		t.Fatalf("dropped = %d, want 12", snap.Dropped)
	}
	// The window is the most recent 8, oldest first.
	for i, ev := range snap.Events {
		if want := fmt.Sprintf("ev%d", 12+i); ev.Kind != want {
			t.Fatalf("events[%d].Kind = %q, want %q", i, ev.Kind, want)
		}
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
}

func TestFlightRecorderPartialWindow(t *testing.T) {
	r := NewFlightRecorder(16)
	r.Record(Event{Kind: "a"})
	r.Record(Event{Kind: "b"})
	snap := r.Snapshot()
	if len(snap.Events) != 2 || snap.Dropped != 0 {
		t.Fatalf("events=%d dropped=%d, want 2/0", len(snap.Events), snap.Dropped)
	}
	if snap.Events[0].Kind != "a" || snap.Events[1].Kind != "b" {
		t.Fatalf("order = %q,%q", snap.Events[0].Kind, snap.Events[1].Kind)
	}
	if snap.Events[0].Time.IsZero() {
		t.Fatal("Record did not default Time")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(64)
	r.Instrument(NewRegistry())
	var writers sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Kind: "w", Attrs: []Attr{A("g", g), A("i", i)}})
			}
		}(g)
	}
	// A concurrent reader snapshots and triggers dumps while writers lap
	// the ring; the point is that nothing tears or panics under race.
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				r.TriggerAnomaly("race")
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := r.Len(); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
	snap := r.Snapshot()
	if len(snap.Events) != 64 || snap.Dropped != 8*500-64 {
		t.Fatalf("events=%d dropped=%d, want 64/%d", len(snap.Events), snap.Dropped, 8*500-64)
	}
}

func TestTriggerAnomalyCooldownCoalescing(t *testing.T) {
	r := NewFlightRecorder(8)
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	r.SetCooldown(time.Minute)
	r.Record(Event{Kind: "request", Tenant: "acme", Cohort: "c1", TraceID: 0xabc})

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
	if len(first.Events) != 1 || first.Events[0].Tenant != "acme" || first.Events[0].TraceID != 0xabc {
		t.Fatalf("dump did not freeze the ring: %+v", first.Events)
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

func TestFlightScopeStamping(t *testing.T) {
	r := NewFlightRecorder(8)
	sc := r.Scope("acme", "c42")
	sc.Event(Event{Kind: "stage_propose"})
	sc.Event(Event{Kind: "request", Tenant: "explicit", Cohort: "other"})
	snap := r.Snapshot()
	if len(snap.Events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(snap.Events))
	}
	if ev := snap.Events[0]; ev.Tenant != "acme" || ev.Cohort != "c42" {
		t.Fatalf("scope did not stamp identity: %+v", ev)
	}
	if ev := snap.Events[1]; ev.Tenant != "explicit" || ev.Cohort != "other" {
		t.Fatalf("scope overwrote explicit identity: %+v", ev)
	}
	if sc.Recorder() != r {
		t.Fatal("Recorder() lost the underlying recorder")
	}
}

func TestFlightNilSafety(t *testing.T) {
	var r *FlightRecorder
	r.Record(Event{Kind: "x"})
	r.Instrument(NewRegistry())
	r.SetCooldown(time.Second)
	r.SetClock(time.Now)
	r.LogDumps(NopLogger())
	if r.TriggerAnomaly("x") {
		t.Fatal("nil recorder dumped")
	}
	if r.Len() != 0 || len(r.Anomalies()) != 0 {
		t.Fatal("nil recorder retained state")
	}
	snap := r.Snapshot()
	if snap == nil || snap.Events == nil || snap.Anomalies == nil {
		t.Fatal("nil recorder snapshot must be non-nil and JSON-friendly")
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var sc *FlightScope
	sc.Event(Event{Kind: "x"})
	if sc.Recorder() != nil {
		t.Fatal("nil scope has a recorder")
	}
	if (*FlightRecorder)(nil).Scope("t", "c") != nil {
		t.Fatal("nil recorder scope must be nil")
	}
}

func TestFlightWriteJSONShape(t *testing.T) {
	r := NewFlightRecorder(4)
	var logged bytes.Buffer
	r.LogDumps(NewLogger(&logged, slog.LevelError, ""))
	r.Record(Event{Kind: "evict", Tenant: "t1", Cohort: "c1", Dur: 3 * time.Millisecond})
	r.TriggerAnomaly("absorb_failure", A("err", "boom"))
	// The dump names its slow layer in the log line and in the JSON.
	if !strings.Contains(logged.String(), `layers="evict=3ms/1"`) {
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
	if len(snap.Events) != 1 || snap.Events[0].Kind != "evict" {
		t.Fatalf("round-tripped events = %+v", snap.Events)
	}
	if len(snap.Anomalies) != 1 || snap.Anomalies[0].Reason != "absorb_failure" {
		t.Fatalf("round-tripped anomalies = %+v", snap.Anomalies)
	}
	want := LayerTotal{Kind: "evict", Count: 1, Total: 3 * time.Millisecond, Max: 3 * time.Millisecond}
	if l := snap.Anomalies[0].Layers; len(l) != 1 || l[0] != want {
		t.Fatalf("round-tripped layers = %+v, want [%+v]", l, want)
	}
}

func TestFlightInstrumentCounters(t *testing.T) {
	reg := NewRegistry()
	r := NewFlightRecorder(4)
	r.Instrument(reg)
	r.SetCooldown(time.Hour)
	r.Record(Event{Kind: "a"})
	r.Record(Event{Kind: "b"})
	r.TriggerAnomaly("x")
	r.TriggerAnomaly("x") // coalesced
	if got := reg.Counter("sbgt_obs_flight_events_total").Value(); got != 2 {
		t.Fatalf("events counter = %d, want 2", got)
	}
	if got := reg.Counter("sbgt_obs_flight_dumps_total").Value(); got != 1 {
		t.Fatalf("dumps counter = %d, want 1", got)
	}
	if got := reg.Counter("sbgt_obs_flight_dumps_coalesced_total").Value(); got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
}

// TestFlightInstrumentWhileRecording: a process may instrument a recorder
// that is already taking events; Record reads the events counter with no
// lock, so the handle must be published atomically (run under -race).
func TestFlightInstrumentWhileRecording(t *testing.T) {
	r := NewFlightRecorder(64)
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Record(Event{Kind: "request"})
			}
		}
	}()
	// Instrument only once the writer is recording, and let it record on
	// for a while afterwards, so its reads straddle the write.
	for r.next.Load() == 0 {
		runtime.Gosched()
	}
	r.Instrument(reg)
	for n := r.next.Load(); r.next.Load() < n+100; {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if reg.Counter("sbgt_obs_flight_events_total").Value() == 0 {
		t.Fatal("no event counted after Instrument")
	}
}
