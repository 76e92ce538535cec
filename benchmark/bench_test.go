package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose; must not be reordered
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.95, 3.85}, {1, 4},
	} {
		if got := percentile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 0.95); !near(got, 7) {
		t.Errorf("one sample: got %v", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
}

// A disturbed round only ever reads slower, so the aggregate must sit on
// the fast side of the rounds and must not follow an outlier there.
func TestFastQuartile(t *testing.T) {
	times := []float64{1.38, 1.40, 1.39, 1.41, 1.40, 2.43, 1.84, 1.46, 1.39}
	got := fastQuartile(times, lowerBetter)
	if !near(got, 1.39) {
		t.Errorf("time aggregate = %v, want the 25th percentile 1.39", got)
	}
	if med := percentile(times, 0.5); got >= med {
		t.Errorf("time aggregate %v is not on the fast side of the median %v", got, med)
	}
	rates := make([]float64, len(times))
	for i, x := range times {
		rates[i] = 4 / x
	}
	if got, want := fastQuartile(rates, higherBetter), 4/1.39; !near(got, want) {
		t.Errorf("rate aggregate = %v, want the 75th percentile %v", got, want)
	}
	// One absurdly fast round must not become the answer.
	if got := fastQuartile(append(times, 0.01), lowerBetter); got < 1.3 {
		t.Errorf("one lucky round moved the aggregate to %v", got)
	}
}

// iqrShare must reproduce Python's statistics.quantiles(xs, n=4), the
// rule the acceptance check applies.
func TestIQRShareMatchesPython(t *testing.T) {
	xs := []float64{2.55, 2.79, 2.89, 2.73, 2.68, 2.83, 2.80, 2.87, 2.59, 2.85}
	// statistics.quantiles(xs, n=4) -> [2.6575, 2.795, 2.855]; median 2.795
	if got, want := iqrShare(xs), (2.855-2.6575)/2.795; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("constant sample: spread %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// turn [0,100] > absorb [10,70] > update [20,50], summary [50,65];
	// a handler span in another goroutine names its parent by index.
	spans := []span{
		{Name: "turn", Start: 0, End: 100, Parent: -1},
		{Name: "core.absorb", Start: 10, End: 70, Parent: 0},
		{Name: "lattice.update", Start: 20, End: 50, Parent: 1},
		{Name: "lattice.summary", Start: 50, End: 65, Parent: 1},
		{Name: "core.propose", Start: 70, End: 95, Parent: 0},
	}
	want := []time.Duration{15, 15, 30, 15, 25}
	got := selfTimes(spans, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// The same spans as the second round of a recorder: parents are
	// indices into the whole slice, offset by the round's base.
	shifted := append([]span(nil), spans...)
	for i := range shifted {
		if shifted[i].Parent >= 0 {
			shifted[i].Parent += 40
		}
	}
	got = selfTimes(shifted, 40)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("with base 40: self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSameCounts(t *testing.T) {
	a := counts{Cohorts: 4, Subjects: 88, Tests: 70, Stages: 70, Correct: 88, Turns: 74}
	if err := sameCounts([]counts{a, a, a}); err != nil {
		t.Errorf("identical rounds rejected: %v", err)
	}
	b := a
	b.Tests++
	err := sameCounts([]counts{a, a, b})
	if err == nil || !strings.Contains(err.Error(), "round 2") {
		t.Errorf("a round with one more test was not caught: %v", err)
	}
}

func TestInfectedPlan(t *testing.T) {
	for _, tc := range []struct{ n, count int }{{22, 4}, {16, 192}, {10, 3}} {
		plan := infectedPlan(tc.n, tc.count)
		if len(plan) != tc.count {
			t.Fatalf("plan for %d cohorts has %d entries", tc.count, len(plan))
		}
		total := 0
		for i, k := range plan {
			total += k
			if i > 0 && k < plan[i-1] {
				t.Errorf("n=%d count=%d: plan %v does not run from lightest to heaviest", tc.n, tc.count, plan)
			}
		}
		// The plan follows Binomial(n, 5 %), so the round's prevalence is
		// the prior's to within one case.
		if want := 0.05 * float64(tc.n*tc.count); math.Abs(float64(total)-want) > math.Max(1, 0.1*want) {
			t.Errorf("n=%d count=%d: %d infected planned, the prior expects %.1f", tc.n, tc.count, total, want)
		}
	}
}

// The seed relabels and reorders; it must not change what a round
// contains, or runs with different seeds would not be comparable.
func TestSeedKeepsThePopulation(t *testing.T) {
	draw := func(seed uint64) ([]cohortInput, []int) {
		cs, order, err := makeCohorts(seed, 12, 9)
		if err != nil {
			t.Fatal(err)
		}
		return cs, order
	}
	a, orderA := draw(1)
	b, orderB := draw(2)
	c, orderC := draw(1)
	sameInputs, sameOrder := true, true
	for i := range a {
		sortedA, sortedB := append([]float64(nil), a[i].risks...), append([]float64(nil), b[i].risks...)
		sort.Float64s(sortedA)
		sort.Float64s(sortedB)
		for j := range sortedA {
			if sortedA[j] != sortedB[j] {
				t.Fatalf("cohort %d: the seed changed the risks themselves, not only their order", i)
			}
		}
		if a[i].truth.Count() != b[i].truth.Count() || a[i].labSeed != b[i].labSeed {
			t.Errorf("cohort %d: the seed changed the number of infected or the lab's noise", i)
		}
		if a[i].truth != b[i].truth {
			sameInputs = false
		}
		if orderA[i] != orderB[i] {
			sameOrder = false
		}
		if a[i].truth != c[i].truth || orderA[i] != orderC[i] {
			t.Fatal("the same seed produced different inputs")
		}
	}
	if sameInputs || sameOrder {
		t.Error("two seeds produced identical inputs")
	}
}

// Every workload at toy size, one untraced and one traced round plus the
// extra passes: the whole driver under `go test ./...`.
func TestWorkloadsSmoke(t *testing.T) {
	for _, info := range workloads {
		t.Run(info.name, func(t *testing.T) {
			e := newEnv(7, 2, t.TempDir())
			w := info.build(true)
			if err := w.setup(e); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			plain := timedRound(w, nil, -1, nil)
			rec := newRecorder()
			traced := timedRound(w, rec, 0, e.reg)
			rep := &report{}
			checkRounds(rep, []*roundResult{plain, traced})
			for _, p := range rep.problems {
				if !strings.HasPrefix(p, "accuracy") { // a toy round is too small to hold to 0.97
					t.Error(p)
				}
			}
			if plain.Cohorts == 0 || len(plain.turns) != plain.Turns {
				t.Errorf("round: %+v with %d turn samples", plain.counts, len(plain.turns))
			}
			values := layerMetrics(rec, traced)
			if err := w.extras(rec, []*roundResult{traced}, values, io.Discard); err != nil {
				t.Fatal(err)
			}
			if got := values["trace.attributed_share"]; got < 0.9 {
				t.Errorf("trace attributes %.3f of turn time to layer spans, want 0.9", got)
			}
			for name := range values {
				if !isPerLayer(name) {
					t.Errorf("metric %s is computed but not declared in perLayer", name)
				}
			}
			for _, must := range mustMove[info.name] {
				if values[must] <= 0 {
					t.Errorf("%s = %v on %s, want above 0", must, values[must], info.name)
				}
			}
			if err := w.close(); err != nil {
				t.Error(err)
			}
		})
	}
}

// mustMove names, per workload, layer metrics that read 0 only if the
// tracing of that layer is broken.
var mustMove = map[string][]string{
	"dense_campaign":   {"core.absorb_ms_p50", "lattice.update_ms_per_cohort", "lattice.states_touched_per_cohort", "halving.candidates_per_select", "engine.tasks_per_cohort", "mem.triad_gbps"},
	"study_small":      {"stats.study_call_ms_p50", "stats.parallel_speedup", "lattice.summary_ms_per_cohort"},
	"cluster_campaign": {"cluster.rpcs_per_cohort", "cluster.bytes_per_cohort", "cluster.update_ms_per_cohort", "cluster.dial_ms_p50", "cluster.vs_dense_ratio"},
	"serve_hot":        {"serve.handler_ms_p50", "serve.transport_ms_p50", "serve.manager_ms_p50", "serve.requests_per_cohort", "lattice.update_ms_per_cohort"},
	"serve_churn":      {"serve.restores_per_cohort", "serve.evictions_per_cohort", "latticeio.checkpoint_bytes", "latticeio.save_ms_p50"},
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func TestServeHotNeverRestores(t *testing.T) {
	e := newEnv(3, 2, t.TempDir())
	w, err := findWorkload("serve_hot")
	if err != nil {
		t.Fatal(err)
	}
	s := w.build(true)
	if err := s.setup(e); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rec := newRecorder()
	r := timedRound(s, rec, 0, e.reg)
	if got := layerMetrics(rec, r)["serve.restores_per_cohort"]; got != 0 {
		t.Errorf("serve_hot restored %v cohorts per cohort, want exactly 0", got)
	}
}

// BENCHMARK.json is what the acceptance check reads and the tables in
// metrics.go are what the driver prints; they must say the same thing.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the driver", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q / %q, driver has %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.ContainsRune(w.why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	better := map[direction]string{lowerBetter: "lower", higherBetter: "higher"}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the driver", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != better[w.better] {
				t.Errorf("%s %d: manifest has %s [%s] %s, driver has %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, better[w.better])
			}
			switch {
			case bounded && (g.Bound == nil || !near(*g.Bound, w.bound) || w.bound > 0.25):
				t.Errorf("%s %s: bound in the manifest %v, in the driver %v (at most 0.25)", kind, w.name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, w.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}
