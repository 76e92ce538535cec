package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	sbgt "repro"
	"repro/internal/posterior"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one turn share Cohort and Turn; Parent
// is the index of the span that caused this one, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cohort int    `json:"cohort"`
	Turn   int    `json:"turn"`
	Round  int    `json:"round"`
	// States is the lattice size (2^N) the posterior held when the call
	// was made; 0 for spans that are not posterior calls.
	States int64 `json:"states,omitempty"`
	// Work is a call-specific count: candidate pools for a prefix scan.
	Work int `json:"work,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span of a traced run in memory; they are written
// out once, at exit. It is shared by the load-generating goroutines and
// the HTTP handler wrapper, hence the lock.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	round int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) open(s span) int {
	s.Start = int64(time.Since(r.epoch))
	r.mu.Lock()
	s.Round = r.round
	r.spans = append(r.spans, s)
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) close(id int) {
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.spans) {
		return span{}
	}
	return r.spans[id]
}

// setRound stamps the spans that follow with the round they belong to
// and returns where that round's spans start.
func (r *recorder) setRound(round int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.round = round
	return len(r.spans)
}

// writeTo dumps the spans as NDJSON, one per line.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// tracer is one goroutine's view of the recorder: it keeps the stack of
// open spans so a new span knows its parent. A nil tracer records
// nothing, which is how untraced rounds run the same code.
type tracer struct {
	rec    *recorder
	stack  []int
	cohort int
	turn   int
}

func newTracer(rec *recorder) *tracer {
	if rec == nil {
		return nil
	}
	return &tracer{rec: rec}
}

func (t *tracer) at(cohort, turn int) {
	if t != nil {
		t.cohort, t.turn = cohort, turn
	}
}

func (t *tracer) top() int {
	if t == nil || len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one and returns a func
// that closes it.
func (t *tracer) begin(name string) func() { return t.beginWork(name, 0, 0) }

func (t *tracer) beginWork(name string, states int64, work int) func() {
	if t == nil {
		return func() {}
	}
	id := t.rec.open(span{Name: name, Parent: t.top(), Cohort: t.cohort, Turn: t.turn, States: states, Work: work})
	t.stack = append(t.stack, id)
	return func() {
		t.rec.close(id)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// selfTimes returns, for every span, its duration minus the time its
// direct children cover. Children of one parent do not overlap here
// (each goroutine runs its calls in sequence, and a handler span is the
// only child of its request), so the subtraction is exact.
func selfTimes(spans []span, base int) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent - base; p >= 0 && p < len(spans) {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// tracedModel wraps a posterior so that every call the session makes
// into it is a span. It adds no behaviour. Unwrap keeps the decorator
// transparent to posterior.Base, which core uses to find backend
// capabilities, and Condition re-wraps the reduced model so the
// decorator survives the session's collapse steps. layer prefixes the
// span names: "lattice" on the dense backend, "cluster" on the cluster
// one, because they are different code behind the same interface.
type tracedModel struct {
	m     sbgt.Posterior
	t     *tracer
	layer string
}

func traceModel(m sbgt.Posterior, t *tracer) sbgt.Posterior {
	if t == nil {
		return m
	}
	layer := "lattice"
	if m.Kind() == sbgt.BackendCluster {
		layer = "cluster"
	}
	return &tracedModel{m: m, t: t, layer: layer}
}

func (w *tracedModel) call(op string, work int) func() {
	return w.t.beginWork(w.layer+"."+op, int64(1)<<uint(w.m.N()), work)
}

func (w *tracedModel) Unwrap() posterior.Model { return w.m }

func (w *tracedModel) N() int                  { return w.m.N() }
func (w *tracedModel) Kind() sbgt.BackendKind  { return w.m.Kind() }
func (w *tracedModel) Risks() []float64        { return w.m.Risks() }
func (w *tracedModel) Response() sbgt.Response { return w.m.Response() }
func (w *tracedModel) Tests() int              { return w.m.Tests() }
func (w *tracedModel) Close() error            { return w.m.Close() }

func (w *tracedModel) Update(pool sbgt.SubjectSet, y sbgt.Outcome) error {
	defer w.call("update", 0)()
	return w.m.Update(pool, y)
}

func (w *tracedModel) Marginals() ([]float64, error) {
	defer w.call("marginals", 0)()
	return w.m.Marginals()
}

func (w *tracedModel) NegMasses(cands []sbgt.SubjectSet) ([]float64, error) {
	defer w.call("negmasses", len(cands))()
	return w.m.NegMasses(cands)
}

func (w *tracedModel) PrefixNegMasses(order []int) ([]float64, error) {
	defer w.call("prefix_scan", len(order))()
	return w.m.PrefixNegMasses(order)
}

func (w *tracedModel) Entropy() (float64, error) {
	defer w.call("entropy", 0)()
	return w.m.Entropy()
}

func (w *tracedModel) Summary() (*posterior.Summary, error) {
	defer w.call("summary", 0)()
	return w.m.Summary()
}

func (w *tracedModel) Condition(subject int, positive bool) (sbgt.Posterior, error) {
	defer w.call("condition", 0)()
	next, err := w.m.Condition(subject, positive)
	if err != nil || next == nil {
		return nil, err
	}
	return &tracedModel{m: next, t: w.t, layer: w.layer}, nil
}

func (w *tracedModel) Snapshot() (*posterior.Snapshot, error) {
	defer w.call("snapshot", 0)()
	return w.m.Snapshot()
}
