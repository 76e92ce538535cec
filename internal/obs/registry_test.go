package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("op", "update"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same metric.
	if c2 := r.Counter("requests_total", L("op", "update")); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Label order does not change identity.
	g := r.Gauge("depth", L("a", "1"), L("b", "2"))
	if g2 := r.Gauge("depth", L("b", "2"), L("a", "1")); g2 != g {
		t.Fatal("label order changed gauge identity")
	}
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	// Cumulative: <=0.01 holds 0.005 and 0.01; <=0.1 adds 0.05; <=1 adds
	// 0.5; +Inf adds 2 and 100.
	wantCum := []uint64{2, 3, 4, 6}
	for i, bk := range hs.Buckets {
		if bk.Count != wantCum[i] {
			t.Errorf("bucket %d (le %v) = %d, want %d", i, bk.UpperBound, bk.Count, wantCum[i])
		}
	}
	if hs.Count != 6 {
		t.Errorf("count = %d, want 6", hs.Count)
	}
	if math.Abs(hs.Sum-102.565) > 1e-9 {
		t.Errorf("sum = %v, want 102.565", hs.Sum)
	}
	if !math.IsInf(hs.Buckets[len(hs.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket bound is not +Inf")
	}
}

func TestHistogramTime(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", nil)
	stop := h.Time()
	time.Sleep(time.Millisecond)
	d := stop()
	if d < time.Millisecond {
		t.Fatalf("measured %v, want >= 1ms", d)
	}
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	// A nil histogram still measures.
	var nh *Histogram
	stop = nh.Time()
	if d := stop(); d < 0 {
		t.Fatalf("nil histogram measured %v", d)
	}
}

func TestNilRegistryHandsOutDetachedMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter does not count")
	}
	g := r.Gauge("x")
	g.Set(2)
	h := r.Histogram("x_seconds", nil)
	h.Observe(0.1)
	r.GaugeFunc("y", func() float64 { return 1 })
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot is not empty")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as gauge after counter did not panic")
		}
	}()
	r.Gauge("m")
}

func TestInvalidNamePanics(t *testing.T) {
	// Registration must fail fast on anything outside the Prometheus
	// charset [a-zA-Z_:][a-zA-Z0-9_:]*, naming the offender.
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("registering %q did not panic", want)
				return
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name the offender %q", msg, want)
			}
		}()
		fn()
	}
	r := NewRegistry()
	for _, bad := range []string{"", "bad name", "0leading", "dash-ed", "uni·code", "semi;colon"} {
		bad := bad
		mustPanic(fmt.Sprintf("%q", bad), func() { r.Counter(bad) })
		mustPanic(fmt.Sprintf("%q", bad), func() { r.Gauge(bad) })
		mustPanic(fmt.Sprintf("%q", bad), func() { r.Histogram(bad, nil) })
		mustPanic(fmt.Sprintf("%q", bad), func() { r.GaugeFunc(bad, func() float64 { return 0 }) })
	}
	// Label keys share the charset; values are free-form.
	mustPanic(`"bad key"`, func() { r.Counter("ok_metric", L("bad key", "v")) })
	r.Counter("ok_metric", L("ok_key", "free form value ✓"))
	// The valid charset registers cleanly, including leading underscore
	// and colons (recording-rule style names).
	for _, good := range []string{"a", "_hidden", "ns:sub:metric_total", "Xy9_"} {
		r.Counter(good)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := 7
	r.GaugeFunc("queue_depth", func() float64 { return float64(depth) })
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || math.Abs(snap.Gauges[0].Value-7) > 1e-12 {
		t.Fatalf("gauge func snapshot = %+v", snap.Gauges)
	}
}

// TestRegistryConcurrency is the race-gate conformance test: parallel
// writers on counters, gauges, and histograms (plus snapshots taken
// mid-flight) must be data-race-free, and once writers quiesce the
// snapshot must account for every observation exactly.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stopSnaps := make(chan struct{})
	snapsDone := make(chan struct{})
	go func() {
		defer close(snapsDone)
		for {
			select {
			case <-stopSnaps:
				return
			default:
				// Snapshots race harmlessly with writers; assert only that
				// they do not crash or trip the race detector.
				_ = r.Snapshot()
			}
		}
	}()
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			// All writers contend on the same three metrics; half also
			// register their own labelled counter to exercise the
			// registration path concurrently.
			c := r.Counter("shared_total")
			g := r.Gauge("shared_level")
			h := r.Histogram("shared_seconds", []float64{0.25, 0.5, 0.75})
			var own *Counter
			if w%2 == 0 {
				own = r.Counter("own_total", L("writer", string(rune('a'+w))))
			}
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%4) / 4.0)
				if own != nil {
					own.Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopSnaps)
	<-snapsDone

	snap := r.Snapshot()
	byName := map[string]CounterSnapshot{}
	for _, c := range snap.Counters {
		byName[fullName(c.Name, c.Labels)] = c
	}
	if got := byName["shared_total"].Value; got != writers*perWriter {
		t.Errorf("shared_total = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w += 2 {
		name := fullName("own_total", []Label{L("writer", string(rune('a'+w)))})
		if got := byName[name].Value; got != perWriter {
			t.Errorf("%s = %d, want %d", name, got, perWriter)
		}
	}
	var gauge *GaugeSnapshot
	for i := range snap.Gauges {
		if snap.Gauges[i].Name == "shared_level" {
			gauge = &snap.Gauges[i]
		}
	}
	if gauge == nil || math.Abs(gauge.Value-writers*perWriter) > 1e-9 {
		t.Errorf("shared_level = %+v, want %d", gauge, writers*perWriter)
	}
	var hist *HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "shared_seconds" {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil {
		t.Fatal("shared_seconds missing from snapshot")
	}
	if hist.Count != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", hist.Count, writers*perWriter)
	}
	if last := hist.Buckets[len(hist.Buckets)-1].Count; last != hist.Count {
		t.Errorf("+Inf bucket %d != count %d", last, hist.Count)
	}
	// Each writer observes 0, 0.25, 0.5, 0.75 round-robin: sum is exact
	// in binary floating point, so equality within an epsilon is safe.
	want := float64(writers) * float64(perWriter) / 4 * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(hist.Sum-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", hist.Sum, want)
	}
	// Cumulative buckets must be monotone.
	for i := 1; i < len(hist.Buckets); i++ {
		if hist.Buckets[i].Count < hist.Buckets[i-1].Count {
			t.Errorf("bucket counts not cumulative at %d: %+v", i, hist.Buckets)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(b[i]-want[i]) > want[i]*1e-12 {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets with factor 1 did not panic")
		}
	}()
	ExpBuckets(1, 1, 3)
}
