package obs

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Objective is one service-level objective evaluated against the metric
// registry. Exactly one of the three shapes should be configured:
//
//   - Latency: Metric names a histogram; the fraction of observations
//     above Target seconds in each evaluation window must stay below
//     1-Quantile (e.g. Quantile 0.99, Target 0.05 reads "p99 propose
//     < 50ms"). Burn is badFraction/(1-Quantile).
//   - Error rate: ErrorMetric and TotalMetric name counters; the window
//     delta ratio must stay below MaxRatio. Burn is ratio/MaxRatio.
//   - Burst: BurstMetric names a counter whose per-window delta must stay
//     below Max (e.g. a shed storm). Burn is delta/Max.
//
// Burn > 1 is a breach. An objective with Degrade set feeds /readyz:
// while breached, SLO.Ready returns an error, which a load balancer sees
// as 503.
type Objective struct {
	Name string

	// Latency shape.
	Metric   string
	Labels   []Label
	Quantile float64
	Target   float64 // seconds

	// Error-rate shape.
	ErrorMetric string
	ErrorLabels []Label
	TotalMetric string
	TotalLabels []Label
	MaxRatio    float64

	// Burst shape.
	BurstMetric string
	BurstLabels []Label
	Max         float64

	// Degrade feeds breaches into readiness.
	Degrade bool
}

// kind discriminates the configured shape.
func (o *Objective) kind() string {
	switch {
	case o.Metric != "":
		return "latency"
	case o.ErrorMetric != "":
		return "errors"
	case o.BurstMetric != "":
		return "burst"
	default:
		return "invalid"
	}
}

func (o *Objective) validate() error {
	switch o.kind() {
	case "latency":
		if !(o.Quantile > 0 && o.Quantile < 1) {
			return fmt.Errorf("obs: objective %q: quantile %v outside (0,1)", o.Name, o.Quantile)
		}
		if !(o.Target > 0) {
			return fmt.Errorf("obs: objective %q: target %v must be positive", o.Name, o.Target)
		}
	case "errors":
		if o.TotalMetric == "" {
			return fmt.Errorf("obs: objective %q: error-rate objective needs TotalMetric", o.Name)
		}
		if !(o.MaxRatio > 0) {
			return fmt.Errorf("obs: objective %q: MaxRatio %v must be positive", o.Name, o.MaxRatio)
		}
	case "burst":
		if !(o.Max > 0) {
			return fmt.Errorf("obs: objective %q: Max %v must be positive", o.Name, o.Max)
		}
	default:
		return fmt.Errorf("obs: objective %q configures no metric", o.Name)
	}
	return nil
}

// ObjectiveState is one objective's evaluated state.
type ObjectiveState struct {
	Name     string    `json:"name"`
	Kind     string    `json:"kind"`
	Burn     float64   `json:"burn"`    // budget consumption rate; > 1 is a breach
	Current  float64   `json:"current"` // bad fraction / error ratio / burst delta
	Breached bool      `json:"breached"`
	Since    time.Time `json:"since,omitempty"` // when the current breach began
}

// SLO evaluates objectives against a registry on a fixed cadence. Each
// Eval diffs the current snapshot against the previous one (the first
// against the snapshot taken by NewSLO), so the evaluation interval is the
// burn window. Breach transitions are
// edge-triggered into the flight recorder (one anomaly auto-dump per
// onset, coalesced by the recorder's cooldown while the breach holds),
// and the per-objective burn/breach state is republished as gauges
// (sbgt_slo_burn_ratio, sbgt_slo_breached) so any metrics consumer —
// including sbgt-top — sees SLO health without a dedicated endpoint.
type SLO struct {
	reg    *Registry
	flight *FlightRecorder
	objs   []Objective

	mu     sync.Mutex
	prev   *Snapshot
	states []ObjectiveState
	clock  func() time.Time

	burn    []*Gauge
	breach  []*Gauge
	mBreach *Counter
}

// NewSLO builds an evaluator over reg. flight may be nil (no auto-dumps).
func NewSLO(reg *Registry, flight *FlightRecorder, objs []Objective) (*SLO, error) {
	if reg == nil {
		return nil, fmt.Errorf("obs: SLO needs a registry")
	}
	s := &SLO{
		reg:     reg,
		flight:  flight,
		objs:    append([]Objective(nil), objs...),
		prev:    reg.Snapshot(),
		states:  make([]ObjectiveState, len(objs)),
		clock:   time.Now,
		burn:    make([]*Gauge, len(objs)),
		breach:  make([]*Gauge, len(objs)),
		mBreach: reg.Counter("sbgt_slo_breaches_total"),
	}
	for i := range s.objs {
		o := &s.objs[i]
		if err := o.validate(); err != nil {
			return nil, err
		}
		s.states[i] = ObjectiveState{Name: o.Name, Kind: o.kind()}
		s.burn[i] = reg.Gauge("sbgt_slo_burn_ratio", L("objective", o.Name))
		s.breach[i] = reg.Gauge("sbgt_slo_breached", L("objective", o.Name))
	}
	return s, nil
}

// SetClock overrides time.Now for tests.
func (s *SLO) SetClock(clock func() time.Time) {
	s.mu.Lock()
	s.clock = clock
	s.mu.Unlock()
}

// findHistogram locates a histogram snapshot by name and label subset.
func findHistogram(snap *Snapshot, name string, labels []Label) *HistogramSnapshot {
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == name && labelsMatch(snap.Histograms[i].Labels, labels) {
			return &snap.Histograms[i]
		}
	}
	return nil
}

// findCounter locates a counter snapshot by name and label subset.
func findCounter(snap *Snapshot, name string, labels []Label) (uint64, bool) {
	for i := range snap.Counters {
		if snap.Counters[i].Name == name && labelsMatch(snap.Counters[i].Labels, labels) {
			return snap.Counters[i].Value, true
		}
	}
	return 0, false
}

// labelsMatch reports whether have contains every wanted pair.
func labelsMatch(have, want []Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.Key == w.Key && h.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return len(have) == len(want) || len(want) == 0 && len(have) == 0 || len(want) > 0
}

// countAbove estimates how many of the histogram's cumulative-bucket
// observations exceeded the target, interpolating linearly inside the
// bucket the target falls in (the standard Prometheus quantile-estimate
// assumption run in reverse).
func countAbove(h *HistogramSnapshot, target float64) float64 {
	if len(h.Buckets) == 0 {
		return 0
	}
	total := float64(h.Buckets[len(h.Buckets)-1].Count)
	var below float64
	lowerBound, lowerCount := 0.0, 0.0
	for _, b := range h.Buckets {
		if math.IsInf(b.UpperBound, 1) || b.UpperBound >= target {
			// Interpolate within [lowerBound, b.UpperBound).
			width := b.UpperBound - lowerBound
			inBucket := float64(b.Count) - lowerCount
			if math.IsInf(b.UpperBound, 1) || width <= 0 {
				below = lowerCount
			} else {
				below = lowerCount + inBucket*(target-lowerBound)/width
			}
			break
		}
		lowerBound, lowerCount = b.UpperBound, float64(b.Count)
		below = lowerCount
	}
	if above := total - below; above > 0 {
		return above
	}
	return 0
}

// deltaHistogram subtracts prev's cumulative buckets from cur's,
// returning a window-local histogram snapshot. A nil prev (a series first
// registered inside the window) counts from zero.
func deltaHistogram(cur, prev *HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Name: cur.Name, Labels: cur.Labels, Count: cur.Count, Sum: cur.Sum}
	out.Buckets = append([]BucketSnapshot(nil), cur.Buckets...)
	if prev == nil {
		return out
	}
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	for i := range out.Buckets {
		if i < len(prev.Buckets) && out.Buckets[i].Count >= prev.Buckets[i].Count {
			out.Buckets[i].Count -= prev.Buckets[i].Count
		}
	}
	return out
}

// Eval runs one evaluation pass over the window since the previous call,
// or since NewSLO for the first, and returns the refreshed states.
func (s *SLO) Eval() []ObjectiveState {
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	prev := s.prev
	s.prev = snap

	for i := range s.objs {
		o := &s.objs[i]
		st := &s.states[i]
		burn, current := 0.0, 0.0
		switch o.kind() {
		case "latency":
			cur := findHistogram(snap, o.Metric, o.Labels)
			if cur != nil {
				d := deltaHistogram(cur, findHistogram(prev, o.Metric, o.Labels))
				if d.Count > 0 {
					current = countAbove(&d, o.Target) / float64(d.Count)
					burn = current / (1 - o.Quantile)
				}
			}
		case "errors":
			ce, oke := findCounter(snap, o.ErrorMetric, o.ErrorLabels)
			ct, okt := findCounter(snap, o.TotalMetric, o.TotalLabels)
			pe, _ := findCounter(prev, o.ErrorMetric, o.ErrorLabels)
			pt, _ := findCounter(prev, o.TotalMetric, o.TotalLabels)
			if oke && okt && ct > pt {
				current = float64(ce-pe) / float64(ct-pt)
				burn = current / o.MaxRatio
			}
		case "burst":
			cb, ok := findCounter(snap, o.BurstMetric, o.BurstLabels)
			pb, _ := findCounter(prev, o.BurstMetric, o.BurstLabels)
			if ok && cb > pb {
				current = float64(cb - pb)
				burn = current / o.Max
			}
		}
		breached := burn > 1
		if breached && !st.Breached {
			st.Since = now
			s.mBreach.Inc()
			s.flight.TriggerAnomaly("slo:"+o.Name,
				A("kind", o.kind()), A("burn", burn), A("current", current))
		}
		if !breached {
			st.Since = time.Time{}
		}
		st.Burn, st.Current, st.Breached = burn, current, breached
		s.burn[i].Set(burn)
		if breached {
			s.breach[i].Set(1)
		} else {
			s.breach[i].Set(0)
		}
	}
	return append([]ObjectiveState(nil), s.states...)
}

// States returns the most recently evaluated states without re-evaluating.
func (s *SLO) States() []ObjectiveState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ObjectiveState(nil), s.states...)
}

// Ready is the /readyz hook: it fails while any Degrade objective is
// breached, so a burning server sheds load-balancer traffic before it
// falls over. Objectives without Degrade never affect readiness.
func (s *SLO) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.objs {
		if s.objs[i].Degrade && s.states[i].Breached {
			return fmt.Errorf("obs: SLO %q breached (burn %.2f)", s.objs[i].Name, s.states[i].Burn)
		}
	}
	return nil
}

// Start evaluates on the given interval until the returned stop function
// is called. Interval <= 0 selects 10s.
func (s *SLO) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				s.Eval()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}
