package obs

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// lookupLabels are the label sets the lookup tests and bench resolve: 0 to
// 4 labels, given out of key order so the sort has work to do.
var lookupLabels = [][]Label{
	nil,
	{L("op", "update")},
	{L("op", "update"), L("backend", "dense")},
	{L("phase", "select"), L("executor", "1"), L("backend", "cluster")},
	{L("z", "4"), L("op", "collapse"), L("executor", "0"), L("backend", "cluster")},
}

// resolve looks up one series of each kind with the given labels. The
// calls spell their labels out, as instrumented code does, so a variadic
// slice that escaped would show as an allocation here.
func resolve(r *Registry, n int) {
	switch n {
	case 0:
		r.Histogram("lookup_seconds", nil)
		r.Counter("lookup_total")
		r.Gauge("lookup_level")
	case 1:
		r.Histogram("lookup_seconds", nil, L("op", "update"))
		r.Counter("lookup_total", L("op", "update"))
		r.Gauge("lookup_level", L("op", "update"))
	case 2:
		r.Histogram("lookup_seconds", nil, L("op", "update"), L("backend", "dense"))
		r.Counter("lookup_total", L("op", "update"), L("backend", "dense"))
		r.Gauge("lookup_level", L("op", "update"), L("backend", "dense"))
	case 3:
		r.Histogram("lookup_seconds", nil, L("phase", "select"), L("executor", "1"), L("backend", "cluster"))
		r.Counter("lookup_total", L("phase", "select"), L("executor", "1"), L("backend", "cluster"))
		r.Gauge("lookup_level", L("phase", "select"), L("executor", "1"), L("backend", "cluster"))
	case 4:
		r.Histogram("lookup_seconds", nil, L("z", "4"), L("op", "collapse"), L("executor", "0"), L("backend", "cluster"))
		r.Counter("lookup_total", L("z", "4"), L("op", "collapse"), L("executor", "0"), L("backend", "cluster"))
		r.Gauge("lookup_level", L("z", "4"), L("op", "collapse"), L("executor", "0"), L("backend", "cluster"))
	}
}

// TestLookupHitAllocatesNothing: resolving a series that exists — the
// path every handle rebinding takes — makes no allocation, with any
// number of labels up to four.
func TestLookupHitAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	for n := range lookupLabels {
		resolve(r, n)
		if allocs := testing.AllocsPerRun(100, func() { resolve(r, n) }); allocs != 0 {
			t.Errorf("%d labels: a hit made %v allocations, want 0", n, allocs)
		}
	}
	if got := len(r.entries); got != 3*len(lookupLabels) {
		t.Fatalf("%d series registered, want %d", got, 3*len(lookupLabels))
	}
}

// formatFullName is the key renderer before the append form: fmt's %q
// over a sort.Slice copy. The registry's keys must stay byte-identical.
func formatFullName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func TestFullNameMatchesFormat(t *testing.T) {
	values := []string{
		"", "plain", `quo"te`, `back\slash`, "tab\there", "new\nline",
		"ünïcödé ✓", "\x00\x7f", "\xff invalid utf-8", "emoji 🦠", " ",
	}
	cases := append([][]Label(nil), lookupLabels...)
	for i, v := range values {
		cases = append(cases,
			[]Label{L("v", v)},
			[]Label{L("b", v), L("a", values[(i+1)%len(values)])},
			[]Label{L("k", "2"), L("k", v), L("a", "1")}, // duplicate keys keep their order
		)
	}
	for _, ls := range cases {
		if got, want := fullName("m_total", ls), formatFullName("m_total", ls); got != want {
			t.Errorf("fullName(%v) = %s, want %s", ls, got, want)
		}
	}
	// A series past the stack array's size still sorts and renders.
	var many []Label
	for i := 0; i < 2*maxStackLabels; i++ {
		many = append(many, L(fmt.Sprintf("k%02d", 2*maxStackLabels-i), fmt.Sprint(i)))
	}
	if got, want := fullName("m", many), formatFullName("m", many); got != want {
		t.Errorf("fullName over %d labels = %s, want %s", len(many), got, want)
	}
	r := NewRegistry()
	if r.Counter("m", many...) != r.Counter("m", many...) {
		t.Errorf("%d labels: a second lookup made a new series", len(many))
	}
}

// TestGaugeFuncReplaces: registering the same gauge function series again
// swaps the function in place of adding a series.
func TestGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", func() float64 { return 1 }, L("q", "a"))
	r.GaugeFunc("depth", func() float64 { return 2 }, L("q", "a"))
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 2 { //lint:allow floats exact small integers
		t.Fatalf("gauges after replacement = %+v, want one reading 2", snap.Gauges)
	}
}

// BenchmarkRegistryLookup prices resolving an existing counter, gauge
// and histogram with 0 to 4 labels: what binding a handle set costs.
// make bench-smoke runs it at -benchtime 1x.
func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	for n := range lookupLabels {
		resolve(r, n)
		b.Run(fmt.Sprintf("labels=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resolve(r, n)
			}
		})
	}
}
