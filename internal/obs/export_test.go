package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenRegistry builds a deterministic registry covering every metric
// kind, label rendering, histogram bucket expansion, and special float
// values.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sbgt_engine_pool_tasks_total").Add(42)
	r.Counter("sbgt_posterior_ops_total", L("backend", "dense"), L("op", "update")).Add(7)
	r.Counter("sbgt_posterior_ops_total", L("backend", "sparse"), L("op", "update")).Add(3)
	r.Gauge("sbgt_engine_pool_inflight").Set(2)
	r.Gauge("sbgt_cluster_shard_states", L("executor", "0")).Set(131072)
	r.GaugeFunc("sbgt_engine_pool_queue_depth", func() float64 { return 5 })
	h := r.Histogram("sbgt_posterior_op_seconds", []float64{0.001, 0.01, 0.1},
		L("backend", "dense"), L("op", "update"))
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 0.5} {
		h.Observe(v)
	}
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom.golden", buf.Bytes())
}

func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The golden must also be valid JSON round-trippable into a Snapshot.
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON snapshot does not round-trip: %v", err)
	}
	if len(back.Counters) != 3 || len(back.Gauges) != 3 || len(back.Histograms) != 1 {
		t.Fatalf("round-tripped snapshot has %d/%d/%d metrics",
			len(back.Counters), len(back.Gauges), len(back.Histograms))
	}
	checkGolden(t, "metrics.json.golden", buf.Bytes())
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	a, b := goldenRegistry().Snapshot(), goldenRegistry().Snapshot()
	aj, _ := json.Marshal(a) //lint:allow errcheck test-only marshal of a known-good value
	bj, _ := json.Marshal(b) //lint:allow errcheck test-only marshal of a known-good value
	if !bytes.Equal(aj, bj) {
		t.Error("two snapshots of identical registries differ")
	}
}
