package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"
)

// AnomalyDump is one auto-captured window: the trigger reason, when it
// fired, and the tail of the attached tracer's span ring at that moment.
// Dumps are retained in memory (most recent last) and served on
// /debug/flight so the window around an incident survives the incident.
// ID names the dump on /debug/flight, in the LogDumps line and on the
// sbgt-top line an operator starts from. Layers is the window's self
// time per span name, largest total first: the dump's own answer to
// "where did the time go".
type AnomalyDump struct {
	ID        string       `json:"id"`
	Time      time.Time    `json:"t"`
	Reason    string       `json:"reason"`
	Attrs     []Attr       `json:"attrs,omitempty"`
	Coalesced uint64       `json:"coalesced,omitempty"` // triggers suppressed by the cooldown since this dump
	Layers    []LayerTotal `json:"layers"`
	Spans     []SpanRecord `json:"spans"`
}

// LayerTotal is one span name's share of a dump's window. Times are self
// times — a span's duration minus that of its children in the window,
// clamped at zero — so over a sequential tree (a served request and the
// lock wait, restore, phases and checkpoint under it) the layers add up
// to the root's duration.
type LayerTotal struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// SelfTimes maps each span's ID to its self time within spans: its
// duration minus the durations of the children recorded beside it,
// clamped at zero (children that ran concurrently can outlast their
// parent).
func SelfTimes(spans []SpanRecord) map[uint64]time.Duration {
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Duration
	}
	for _, s := range spans {
		if d, ok := self[s.ParentID]; ok && s.ParentID != 0 {
			self[s.ParentID] = d - s.Duration
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// foldLayers totals self time per span name, sorted by total (then name,
// so zero-length spans keep a stable order).
func foldLayers(spans []SpanRecord) []LayerTotal {
	self := SelfTimes(spans)
	at := map[string]int{}
	out := []LayerTotal{}
	for _, s := range spans {
		i, ok := at[s.Name]
		if !ok {
			i = len(out)
			at[s.Name] = i
			out = append(out, LayerTotal{Name: s.Name})
		}
		l, d := &out[i], self[s.ID]
		l.Count++
		l.Total += d
		if d > l.Max {
			l.Max = d
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FlightSnapshot is the /debug/flight payload: the retained anomaly
// dumps. The live span window is /spans.
type FlightSnapshot struct {
	Anomalies []AnomalyDump `json:"anomalies"`
}

// maxAnomalyDumps bounds the retained anomaly history. Old dumps fall
// off the front; the newest is what sbgt-top and an operator want first.
const maxAnomalyDumps = 4

// FlightRecorder turns anomaly triggers into dumps: each one freezes the
// last limit spans of the attached tracer, so the span ring is the only
// event store and Span.End the only record path. It runs only on
// triggers and scrapes. A nil *FlightRecorder is valid and discards
// everything, like the rest of this package.
type FlightRecorder struct {
	limit int

	mu        sync.Mutex
	tracer    *Tracer
	anomalies []AnomalyDump
	anomSeq   uint64
	lastFire  map[string]time.Time
	cooldown  time.Duration
	clock     func() time.Time
	log       *slog.Logger // set by LogDumps; nil logs nothing

	mDumps    *Counter
	mCoalesce *Counter
}

// DefaultAnomalyCooldown spaces auto-dumps for the same trigger reason:
// a sustained incident produces one dump plus a coalesced-trigger count,
// not a dump per evaluation tick.
const DefaultAnomalyCooldown = time.Minute

// NewFlightRecorder returns a recorder whose dumps hold the most recent
// limit spans of the tracer Attach names (limit <= 0 selects 2048).
func NewFlightRecorder(limit int) *FlightRecorder {
	if limit <= 0 {
		limit = 2048
	}
	return &FlightRecorder{
		limit:    limit,
		lastFire: make(map[string]time.Time),
		cooldown: DefaultAnomalyCooldown,
		clock:    time.Now,
	}
}

// Attach names the tracer whose span ring dumps freeze. Until a tracer
// is attached, dumps carry the trigger but no spans.
func (r *FlightRecorder) Attach(t *Tracer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracer = t
	r.mu.Unlock()
}

// Instrument routes recorder activity into reg:
// sbgt_obs_flight_dumps_total and sbgt_obs_flight_dumps_coalesced_total.
// Nil recorder or registry is a no-op.
func (r *FlightRecorder) Instrument(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
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

// TriggerAnomaly captures an auto-dump for the given reason: the tail of
// the attached tracer's span ring is frozen into an AnomalyDump and
// retained. Triggers for the same reason within the cooldown are
// coalesced into the previous dump's Coalesced count instead of producing
// another dump, so a breach that persists across evaluation ticks yields
// exactly one dump. Returns true when a new dump was captured.
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
	spans, _ := r.tracer.Snapshot()
	if len(spans) > r.limit {
		spans = append([]SpanRecord(nil), spans[len(spans)-r.limit:]...)
	} else if spans == nil {
		spans = []SpanRecord{}
	}
	dump := AnomalyDump{
		ID:   fmt.Sprintf("a%06d", r.anomSeq),
		Time: now, Reason: reason, Attrs: attrs, Layers: foldLayers(spans), Spans: spans,
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

// WriteJSON renders the retained dumps as indented JSON — the
// /debug/flight body and half of the SIGQUIT dump.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	snap := FlightSnapshot{Anomalies: r.Anomalies()}
	if snap.Anomalies == nil {
		snap.Anomalies = []AnomalyDump{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// LogDumps logs each anomaly dump's headline (reason, span count, the
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
		layers[i] = fmt.Sprintf("%s=%v/%d", l.Name, l.Total, l.Count)
	}
	args := []any{"anomaly", d.ID, "reason", d.Reason, "spans", len(d.Spans),
		"layers", strings.Join(layers, " ")}
	for _, a := range d.Attrs {
		args = append(args, a.Key, a.Value)
	}
	log.Error("obs: anomaly auto-dump captured", args...)
}
