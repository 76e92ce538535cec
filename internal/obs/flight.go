package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured flight-recorder entry: a request summary, a
// stage transition, an eviction, a shed, an RPC failure. Events carry the
// identities an operator needs after the fact — which tenant, which
// cohort, which trace — so an anomaly dump is directly actionable.
type Event struct {
	Time    time.Time     `json:"t"`
	Kind    string        `json:"kind"`
	Tenant  string        `json:"tenant,omitempty"`
	Cohort  string        `json:"cohort,omitempty"`
	TraceID uint64        `json:"trace_id,omitempty"`
	Dur     time.Duration `json:"dur_ns,omitempty"`
	Err     string        `json:"err,omitempty"`
	Attrs   []Attr        `json:"attrs,omitempty"`
}

// flightSlot pairs an event with its global sequence number so a
// snapshot taken concurrently with writers can be ordered without a
// writer-side lock.
type flightSlot struct {
	seq uint64
	ev  Event
}

// AnomalyDump is one auto-captured ring snapshot: the trigger reason,
// when it fired, and the events that led up to it. Dumps are retained in
// memory (most recent last) and served on /debug/flight so the window
// around an incident survives the incident. ID names the dump on
// /debug/flight, in the LogDumps line and on the sbgt-top line an
// operator starts from. Layers is the window totalled per event kind,
// largest total first: the dump's own answer to "where did the time go".
type AnomalyDump struct {
	ID        string       `json:"id"`
	Time      time.Time    `json:"t"`
	Reason    string       `json:"reason"`
	Attrs     []Attr       `json:"attrs,omitempty"`
	Coalesced uint64       `json:"coalesced,omitempty"` // triggers suppressed by the cooldown since this dump
	Layers    []LayerTotal `json:"layers"`
	Events    []Event      `json:"events"`
}

// LayerTotal is one event kind's share of a dump's window. Kinds nest —
// a request's Dur contains the stage_propose, stage_absorb, restore and
// evict events it caused — so totals rank layers, they do not add up.
type LayerTotal struct {
	Kind  string        `json:"kind"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// foldLayers totals events per kind, sorted by total (then kind, so
// kinds that carry no duration keep a stable order).
func foldLayers(events []Event) []LayerTotal {
	at := map[string]int{}
	out := []LayerTotal{}
	for _, ev := range events {
		i, ok := at[ev.Kind]
		if !ok {
			i = len(out)
			at[ev.Kind] = i
			out = append(out, LayerTotal{Kind: ev.Kind})
		}
		l := &out[i]
		l.Count++
		l.Total += ev.Dur
		if ev.Dur > l.Max {
			l.Max = ev.Dur
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// FlightSnapshot is the /debug/flight payload: the current event window,
// how many older events the ring bound has discarded, and the retained
// anomaly dumps.
type FlightSnapshot struct {
	Dropped   uint64        `json:"dropped"`
	Events    []Event       `json:"events"`
	Anomalies []AnomalyDump `json:"anomalies"`
}

// maxAnomalyDumps bounds the retained anomaly history. Old dumps fall
// off the front; the newest is what sbgt-top and an operator want first.
const maxAnomalyDumps = 4

// FlightRecorder is a bounded ring of recent events. Record is lock-free
// (one atomic increment plus one atomic pointer store), so it can sit on
// the request hot path; Snapshot and the anomaly machinery take a mutex
// but run only on scrapes and triggers. A nil *FlightRecorder is valid
// and discards everything, like the rest of this package.
type FlightRecorder struct {
	slots []atomic.Pointer[flightSlot]
	next  atomic.Uint64

	mu        sync.Mutex
	anomalies []AnomalyDump
	anomSeq   uint64
	lastFire  map[string]time.Time
	cooldown  time.Duration
	clock     func() time.Time
	log       *slog.Logger // set by LogDumps; nil logs nothing

	mEvents   atomic.Pointer[Counter] // read by Record, which takes no lock
	mDumps    *Counter
	mCoalesce *Counter
}

// DefaultAnomalyCooldown spaces auto-dumps for the same trigger reason:
// a sustained incident produces one dump plus a coalesced-trigger count,
// not a dump per evaluation tick.
const DefaultAnomalyCooldown = time.Minute

// NewFlightRecorder returns a recorder retaining the most recent limit
// events (limit <= 0 selects 2048).
func NewFlightRecorder(limit int) *FlightRecorder {
	if limit <= 0 {
		limit = 2048
	}
	return &FlightRecorder{
		slots:    make([]atomic.Pointer[flightSlot], limit),
		lastFire: make(map[string]time.Time),
		cooldown: DefaultAnomalyCooldown,
		clock:    time.Now,
	}
}

// Instrument routes recorder activity into reg:
// sbgt_obs_flight_events_total, sbgt_obs_flight_dumps_total, and
// sbgt_obs_flight_dumps_coalesced_total. Nil recorder or registry is a
// no-op.
func (r *FlightRecorder) Instrument(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mEvents.Store(reg.Counter("sbgt_obs_flight_events_total"))
	r.mu.Lock()
	r.mDumps = reg.Counter("sbgt_obs_flight_dumps_total")
	r.mCoalesce = reg.Counter("sbgt_obs_flight_dumps_coalesced_total")
	r.mu.Unlock()
}

// SetCooldown overrides the per-reason anomaly dump spacing (tests use a
// zero clock step with a tiny cooldown).
func (r *FlightRecorder) SetCooldown(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cooldown = d
	r.mu.Unlock()
}

// SetClock overrides time.Now for tests.
func (r *FlightRecorder) SetClock(clock func() time.Time) {
	if r == nil || clock == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Record appends one event, overwriting the oldest when the ring is
// full. Safe for concurrent use and lock-free. Time defaults to now.
func (r *FlightRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	seq := r.next.Add(1)
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&flightSlot{seq: seq, ev: ev})
	if c := r.mEvents.Load(); c != nil {
		c.Inc()
	}
}

// Len reports how many events are currently retained.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// events returns the retained events oldest-first. A snapshot racing
// writers can miss an in-flight store or see a slot from the next lap;
// sorting by sequence and dropping out-of-window entries keeps the
// result consistent without stalling Record.
func (r *FlightRecorder) events() (out []Event, dropped uint64) {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		dropped = n - uint64(len(r.slots))
	}
	type seqEv struct {
		seq uint64
		ev  Event
	}
	tmp := make([]seqEv, 0, len(r.slots))
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil && s.seq <= n {
			tmp = append(tmp, seqEv{s.seq, s.ev})
		}
	}
	// Insertion sort by sequence: the ring is nearly ordered already (one
	// rotation), and windows are small.
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j].seq < tmp[j-1].seq; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	out = make([]Event, len(tmp))
	for i, s := range tmp {
		out[i] = s.ev
	}
	return out, dropped
}

// Snapshot captures the current window plus the retained anomaly dumps —
// the /debug/flight payload.
func (r *FlightRecorder) Snapshot() *FlightSnapshot {
	if r == nil {
		return &FlightSnapshot{Events: []Event{}, Anomalies: []AnomalyDump{}}
	}
	events, dropped := r.events()
	r.mu.Lock()
	anoms := append([]AnomalyDump(nil), r.anomalies...)
	r.mu.Unlock()
	if anoms == nil {
		anoms = []AnomalyDump{}
	}
	return &FlightSnapshot{Dropped: dropped, Events: events, Anomalies: anoms}
}

// TriggerAnomaly captures an auto-dump for the given reason: the current
// ring contents are frozen into an AnomalyDump and retained. Triggers for
// the same reason within the cooldown are coalesced into the previous
// dump's Coalesced count instead of producing another dump, so a breach
// that persists across evaluation ticks yields exactly one dump. Returns
// true when a new dump was captured.
func (r *FlightRecorder) TriggerAnomaly(reason string, attrs ...Attr) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	now := r.clock()
	if last, ok := r.lastFire[reason]; ok && now.Sub(last) < r.cooldown {
		for i := len(r.anomalies) - 1; i >= 0; i-- {
			if r.anomalies[i].Reason == reason {
				r.anomalies[i].Coalesced++
				break
			}
		}
		if r.mCoalesce != nil {
			r.mCoalesce.Inc()
		}
		r.mu.Unlock()
		return false
	}
	r.lastFire[reason] = now
	r.anomSeq++
	events, _ := r.events()
	dump := AnomalyDump{
		ID:   fmt.Sprintf("a%06d", r.anomSeq),
		Time: now, Reason: reason, Attrs: attrs, Layers: foldLayers(events), Events: events,
	}
	r.anomalies = append(r.anomalies, dump)
	if len(r.anomalies) > maxAnomalyDumps {
		r.anomalies = append(r.anomalies[:0], r.anomalies[len(r.anomalies)-maxAnomalyDumps:]...)
	}
	if r.mDumps != nil {
		r.mDumps.Inc()
	}
	log := r.log
	r.mu.Unlock()
	if log != nil {
		logDump(log, dump) // outside the lock: the handler is the caller's code
	}
	return true
}

// Anomalies returns the retained dumps, oldest first.
func (r *FlightRecorder) Anomalies() []AnomalyDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]AnomalyDump(nil), r.anomalies...)
}

// WriteJSON renders the full snapshot as indented JSON — the SIGQUIT
// dump format, identical to the /debug/flight body.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// LogDumps logs each anomaly dump's headline (reason, event count, the
// three largest layers, trigger attrs) through log at error level — the
// "a dump happened, and this is where its time went" operator signal.
func (r *FlightRecorder) LogDumps(log *slog.Logger) {
	if r == nil || log == nil {
		return
	}
	r.mu.Lock()
	r.log = log
	r.mu.Unlock()
}

func logDump(log *slog.Logger, d AnomalyDump) {
	top := d.Layers
	if len(top) > 3 {
		top = top[:3]
	}
	layers := make([]string, len(top))
	for i, l := range top {
		layers[i] = fmt.Sprintf("%s=%v/%d", l.Kind, l.Total, l.Count)
	}
	args := []any{"anomaly", d.ID, "reason", d.Reason, "events", len(d.Events),
		"layers", strings.Join(layers, " ")}
	for _, a := range d.Attrs {
		args = append(args, a.Key, a.Value)
	}
	log.Error("obs: anomaly auto-dump captured", args...)
}

// FlightScope pre-binds tenant and cohort identity onto recorded events —
// the shape session-level instrumentation wants, where the recorder is
// shared but every event belongs to one cohort. A nil scope discards.
type FlightScope struct {
	rec    *FlightRecorder
	tenant string
	cohort string
}

// Scope returns a recorder view that stamps tenant and cohort onto every
// event. A nil recorder returns a nil (safe to use) scope.
func (r *FlightRecorder) Scope(tenant, cohort string) *FlightScope {
	if r == nil {
		return nil
	}
	return &FlightScope{rec: r, tenant: tenant, cohort: cohort}
}

// Event records one event under the scope's identity.
func (s *FlightScope) Event(ev Event) {
	if s == nil {
		return
	}
	if ev.Tenant == "" {
		ev.Tenant = s.tenant
	}
	if ev.Cohort == "" {
		ev.Cohort = s.cohort
	}
	s.rec.Record(ev)
}

// Recorder exposes the underlying recorder (nil for a nil scope).
func (s *FlightScope) Recorder() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.rec
}
