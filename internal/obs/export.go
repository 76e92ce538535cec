package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time capture of every metric in a registry, the
// unit the JSON exporter serializes. Within one section entries are sorted
// by name then labels, so snapshots diff cleanly across runs.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter's captured state.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeSnapshot is one gauge's captured state.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// BucketSnapshot is one cumulative histogram bucket: the count of
// observations <= UpperBound. The +Inf bucket equals Count.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// bucketJSON is the wire form of a bucket. The upper bound travels as a
// string because the last bucket is always +Inf, which encoding/json
// cannot represent as a number.
type bucketJSON struct {
	UpperBound string `json:"le"`
	Count      uint64 `json:"count"`
}

// MarshalJSON renders the bound in Prometheus notation ("0.01", "+Inf").
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{UpperBound: formatValue(b.UpperBound), Count: b.Count})
}

// UnmarshalJSON parses the string bound back, accepting "+Inf"/"-Inf".
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	var v float64
	switch w.UpperBound {
	case "+Inf", "Inf":
		v = math.Inf(1)
	case "-Inf":
		v = math.Inf(-1)
	default:
		f, err := strconv.ParseFloat(w.UpperBound, 64)
		if err != nil {
			return fmt.Errorf("obs: bad bucket bound %q: %w", w.UpperBound, err)
		}
		v = f
	}
	b.UpperBound = v
	b.Count = w.Count
	return nil
}

// HistogramSnapshot is one histogram's captured state.
type HistogramSnapshot struct {
	Name    string           `json:"name"`
	Labels  []Label          `json:"labels,omitempty"`
	Count   uint64           `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []BucketSnapshot `json:"buckets"`
}

// Snapshot captures every registered metric. Counters and gauges are
// read atomically per metric; a histogram's buckets/count/sum are read
// without a global lock, so a snapshot taken mid-observation can be
// ahead/behind by in-flight observations — exact once writers quiesce.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	for _, e := range r.snapshotEntries() {
		labels := sortedLabels(e.labels)
		switch e.kind {
		case kindCounter:
			snap.Counters = append(snap.Counters, CounterSnapshot{
				Name: e.name, Labels: labels, Value: e.c.Value(),
			})
		case kindGauge:
			snap.Gauges = append(snap.Gauges, GaugeSnapshot{
				Name: e.name, Labels: labels, Value: e.g.Value(),
			})
		case kindGaugeFunc:
			snap.Gauges = append(snap.Gauges, GaugeSnapshot{
				Name: e.name, Labels: labels, Value: e.gf(),
			})
		case kindHistogram:
			h := e.h
			hs := HistogramSnapshot{
				Name: e.name, Labels: labels,
				Buckets: make([]BucketSnapshot, 0, len(h.bounds)+1),
			}
			var cum uint64
			for i, b := range h.bounds {
				cum += h.buckets[i].Load()
				hs.Buckets = append(hs.Buckets, BucketSnapshot{UpperBound: b, Count: cum})
			}
			cum += h.buckets[len(h.bounds)].Load()
			hs.Buckets = append(hs.Buckets, BucketSnapshot{UpperBound: math.Inf(1), Count: cum})
			hs.Count = h.Count()
			hs.Sum = h.Sum()
			snap.Histograms = append(snap.Histograms, hs)
		}
	}
	return snap
}

func sortedLabels(ls []Label) []Label {
	if len(ls) == 0 {
		return nil
	}
	out := append([]Label(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// formatValue renders a float the way Prometheus text exposition expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// promLabels renders a label set (plus an optional extra pair) in
// exposition format: {k="v",...} or the empty string. It is the
// registry key's rendering (appendFullName) with an empty name.
func promLabels(labels []Label, extraKey, extraVal string) string {
	if extraKey != "" {
		labels = append(labels[:len(labels):len(labels)], L(extraKey, extraVal))
	}
	return string(appendFullName(nil, "", labels))
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, histograms
// expanded into _bucket/_sum/_count series with cumulative le labels.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	typed := map[string]bool{}
	writeType := func(name, typ string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		}
	}
	for _, c := range s.Counters {
		writeType(c.Name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", c.Name, promLabels(c.Labels, "", ""), c.Value)
	}
	for _, g := range s.Gauges {
		writeType(g.Name, "gauge")
		fmt.Fprintf(&b, "%s%s %s\n", g.Name, promLabels(g.Labels, "", ""), formatValue(g.Value))
	}
	for _, h := range s.Histograms {
		writeType(h.Name, "histogram")
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s_bucket%s %d\n",
				h.Name, promLabels(h.Labels, "le", formatValue(bk.UpperBound)), bk.Count)
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", h.Name, promLabels(h.Labels, "", ""), formatValue(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", h.Name, promLabels(h.Labels, "", ""), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
