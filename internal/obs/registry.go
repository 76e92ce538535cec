package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; all methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can move both ways (queue depths, shard sizes,
// in-flight work). The zero value is ready to use; all methods are safe
// for concurrent use and lock-free.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution of float64 observations with
// a running count and sum. Buckets are cumulative at snapshot time,
// Prometheus-style; internally each bucket is an independent atomic so
// Observe never takes a lock.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf bucket at the end
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	for i := 1; i < len(bs); i++ {
		if !(bs[i] > bs[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d: %v", i, bs))
		}
	}
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// bucketIndex returns the bucket slot for v: the first bound >= v, or
// the +Inf slot. Binary search; the ladders are short (8–16 bounds) so
// this is a handful of branches.
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value. A nil histogram discards it.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Time starts a wall-clock measurement of one region. The returned stop
// function observes the elapsed time in seconds and returns the elapsed
// duration. A nil histogram still times — instrumented code can measure
// unconditionally and only export when a registry was wired:
//
//	stop := hist.Time()
//	defer stop()
func (h *Histogram) Time() (stop func() time.Duration) {
	t0 := time.Now()
	return func() time.Duration {
		d := time.Since(t0)
		if h != nil {
			h.Observe(d.Seconds())
		}
		return d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// kind discriminates registry entries.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// entry is one registered metric.
type entry struct {
	kind   kind
	name   string // base name, no labels
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// Registry holds named metrics. Registration (Counter, Gauge, Histogram,
// GaugeFunc) takes a mutex; the returned metric handles are lock-free,
// so hot paths register once and observe through the handle. A nil
// *Registry is valid: it hands out detached metrics that work but are
// never exported, which lets instrumentation run unconditionally.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry // by fullName
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// lookup returns the entry for name+labels, creating it (a histogram with
// the given bounds) when absent. It panics when a name is invalid or
// already registered as a different kind — both programmer errors in
// metric declarations. The key is built in stack buffers and the map is
// indexed without converting it, so a hit allocates nothing; only a new
// series copies its labels and key to the heap.
func (r *Registry) lookup(k kind, name string, labels []Label, bounds []float64) *entry {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on metric %q", l.Key, name))
		}
	}
	var sortBuf [maxStackLabels]Label
	sorted := sortLabels(sortBuf[:0], labels)
	var keyBuf [256]byte
	key := appendFullName(keyBuf[:0], name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[string(key)]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", string(key), e.kind, k))
		}
		return e
	}
	e := &entry{kind: k, name: name, labels: append([]Label(nil), sorted...)}
	switch k {
	case kindCounter:
		e.c = new(Counter)
	case kindGauge:
		e.g = new(Gauge)
	case kindHistogram:
		e.h = newHistogram(bounds)
	}
	r.entries[string(key)] = e
	return e
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return new(Counter)
	}
	return r.lookup(kindCounter, name, labels, nil).c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	return r.lookup(kindGauge, name, labels, nil).g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time (e.g. a live queue depth). Re-registering the same full name
// replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.lookup(kindGaugeFunc, name, labels, nil)
	r.mu.Lock()
	e.gf = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name+labels, creating
// it with the given upper bounds on first use (later calls reuse the
// existing buckets and ignore bounds). A nil bounds slice selects
// LatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	if r == nil {
		return newHistogram(bounds)
	}
	return r.lookup(kindHistogram, name, labels, bounds).h
}

// snapshotEntries returns the entries sorted by full name, for exporters.
func (r *Registry) snapshotEntries() []*entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	out := make([]*entry, 0, len(names))
	r.mu.Unlock()
	// Sort outside the lock; entries are append-only so the handles stay
	// valid, and gauge functions run unlocked (they may take other locks).
	sort.Strings(names)
	r.mu.Lock()
	for _, n := range names {
		out = append(out, r.entries[n])
	}
	r.mu.Unlock()
	return out
}
