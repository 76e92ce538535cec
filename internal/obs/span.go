package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// A builds an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is one finished span as the tracer stores and exports it.
type SpanRecord struct {
	TraceID  uint64        `json:"trace_id,omitempty"`
	ID       uint64        `json:"id"`
	ParentID uint64        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Context returns the record's propagatable identity.
func (r SpanRecord) Context() TraceContext {
	return TraceContext{TraceID: r.TraceID, SpanID: r.ID}
}

// Tracer collects finished spans in a bounded buffer. When the buffer is
// full the oldest spans are dropped (and counted), so a long-running
// process keeps the most recent trace window. A nil *Tracer is valid:
// spans started on it still measure time but record nowhere.
//
// Span and trace IDs are allocated from a per-tracer namespace seeded
// with process entropy, so spans recorded by tracers in different
// processes (driver and executors) can be merged into one trace without
// ID collisions.
type Tracer struct {
	mu      sync.Mutex
	spans   []SpanRecord // ring storage; grows to limit, then wraps
	head    int          // index of the oldest span once len(spans) == limit
	limit   int
	dropped uint64
	drops   *Counter // optional exported drop counter; may be nil
	seed    uint64
	nextID  atomic.Uint64
}

// NewTracer returns a tracer retaining at most limit finished spans
// (limit <= 0 selects 4096).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = 4096
	}
	return &Tracer{limit: limit, seed: idSeed()}
}

// SetDropCounter routes buffer evictions into an exported counter
// (conventionally sbgt_obs_spans_dropped_total) in addition to the
// tracer's own tally (the "dropped" field of /spans). A nil tracer or
// counter is a no-op.
func (t *Tracer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.drops = c
	t.mu.Unlock()
}

// newID allocates the next scattered span/trace ID (never zero).
func (t *Tracer) newID() uint64 {
	for {
		if id := splitmix64(t.seed + t.nextID.Add(1)); id != 0 {
			return id
		}
	}
}

// Start opens a root span of a new trace. The span measures from now
// until End; it is recorded only if the tracer is non-nil.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	s := &Span{tracer: t, name: name, start: time.Now(), attrs: attrs}
	if t != nil {
		s.id = t.newID()
		s.trace = t.newID()
	}
	return s
}

// StartUnder opens a span as a child of an existing trace context —
// typically one propagated from another process (the executor side of an
// RPC) or from another subsystem's live span. An invalid parent context
// degrades to Start: the span opens a fresh trace.
func (t *Tracer) StartUnder(name string, parent TraceContext, attrs ...Attr) *Span {
	s := t.Start(name, attrs...)
	if parent.Valid() {
		s.trace = parent.TraceID
		s.parent = parent.SpanID
	}
	return s
}

// record appends one finished span, evicting the oldest on overflow.
// The buffer is a ring: once full, each new span overwrites the oldest
// in place, keeping the hot path O(1) regardless of the retention limit
// (a copy-down here would move the whole window per span and dominates
// the RPC tracing overhead).
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, rec)
	} else {
		t.spans[t.head] = rec
		t.head++
		if t.head == len(t.spans) {
			t.head = 0
		}
		t.dropped++
		if t.drops != nil {
			t.drops.Add(1)
		}
	}
	t.mu.Unlock()
}

// linearize returns the buffered spans oldest-first as a fresh slice.
// Callers must hold t.mu.
func (t *Tracer) linearize() []SpanRecord {
	if t.head == 0 {
		return append([]SpanRecord(nil), t.spans...)
	}
	out := make([]SpanRecord, 0, len(t.spans))
	out = append(out, t.spans[t.head:]...)
	return append(out, t.spans[:t.head]...)
}

// Absorb records externally produced span records — the completed
// executor spans shipped back in an RPC response trailer — into this
// tracer's buffer, subject to the same retention bound. A nil tracer
// discards them.
func (t *Tracer) Absorb(recs ...SpanRecord) {
	if t == nil {
		return
	}
	for _, rec := range recs {
		t.record(rec)
	}
}

// Snapshot returns a copy of the buffered spans, oldest first, plus the
// eviction count — the /spans payload. Nothing reads the ring
// destructively, so an anomaly dump's window stays readable here.
func (t *Tracer) Snapshot() (spans []SpanRecord, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	spans = t.linearize()
	dropped = t.dropped
	t.mu.Unlock()
	return spans, dropped
}

// WriteJSON renders the currently buffered spans as one JSON-lines
// record per span, the -trace-out file format.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans, _ := t.Snapshot()
	enc := json.NewEncoder(w)
	for _, rec := range spans {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans renders the /spans document: the buffered spans and the
// retention-bound eviction count.
func (t *Tracer) writeSpans(w io.Writer) error {
	spans, dropped := t.Snapshot()
	if spans == nil {
		spans = []SpanRecord{}
	}
	return json.NewEncoder(w).Encode(struct {
		Dropped uint64       `json:"dropped"`
		Spans   []SpanRecord `json:"spans"`
	}{dropped, spans})
}

// Span is one named timed region. Spans nest: Child opens a sub-region
// attributed to this span. Spans are not safe for concurrent use; give
// each goroutine its own child.
type Span struct {
	tracer *Tracer
	name   string
	id     uint64
	parent uint64
	trace  uint64
	start  time.Time
	attrs  []Attr
	ended  bool
	rec    SpanRecord // the finished record, valid once ended
}

// Child opens a nested span under s, sharing its tracer and trace.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	c := s.tracer.Start(name, attrs...)
	c.parent = s.id
	c.trace = s.trace
	return c
}

// Context returns the span's propagatable identity, for injection into
// outgoing RPC frames. Spans started on a nil tracer return an invalid
// context (they have no IDs), which receivers treat as "not traced".
func (s *Span) Context() TraceContext {
	return TraceContext{TraceID: s.trace, SpanID: s.id}
}

// SetAttr attaches an attribute to the span before it ends.
func (s *Span) SetAttr(key string, value any) {
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Fail sets the span's err attr when err is non-nil, so a failed
// region's record says what went wrong. Call it before End.
func (s *Span) Fail(err error) {
	if err != nil {
		s.SetAttr("err", err.Error())
	}
}

// End closes the span, records it if a tracer is attached, and returns
// the measured duration. End is idempotent; the first call wins.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.ended {
		return d
	}
	s.ended = true
	s.rec = SpanRecord{
		TraceID:  s.trace,
		ID:       s.id,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Attrs:    s.attrs,
	}
	if s.tracer != nil {
		s.tracer.record(s.rec)
	}
	return d
}

// Record returns the finished span record (for shipping across a process
// boundary). ok is false until End has been called.
func (s *Span) Record() (rec SpanRecord, ok bool) {
	return s.rec, s.ended
}
