package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/obs"
)

// TestDialWithRetriesWrapsAddressAndAttempt pins the Dial error contract:
// a connection that keeps failing surfaces the executor address and the
// attempt number, and each retry leaves a dial_retry flight event.
func TestDialWithRetriesWrapsAddressAndAttempt(t *testing.T) {
	// A listener that is immediately closed yields a refused port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	flight := obs.NewFlightRecorder(8)
	_, err = DialWith([]string{dead}, []float64{0.1, 0.2}, dilution.Binary{Sens: 0.95, Spec: 0.99},
		DialOptions{Timeout: time.Second, Attempts: 3, Flight: flight.Scope("", "")})
	if err == nil {
		t.Fatal("dial of a dead executor succeeded")
	}
	if !strings.Contains(err.Error(), dead) {
		t.Errorf("error does not name the executor: %v", err)
	}
	if !strings.Contains(err.Error(), "attempt 3/3") {
		t.Errorf("error does not carry the attempt number: %v", err)
	}
	retries := 0
	for _, ev := range flight.Snapshot().Events {
		if ev.Kind == "dial_retry" && ev.Err != "" {
			retries++
		}
	}
	if retries != 2 {
		t.Errorf("dial_retry events = %d, want 2", retries)
	}
}

// TestDialDeadlineErrorNamesExecutor covers the satellite bug: a
// per-connection deadline firing during the prior build must still name
// the executor that timed out.
func TestDialDeadlineErrorNamesExecutor(t *testing.T) {
	// A listener that accepts but never speaks the protocol stalls the
	// prior build until the deadline fires.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	addr := l.Addr().String()
	_, err = DialWith([]string{addr}, []float64{0.1, 0.2}, dilution.Binary{Sens: 0.95, Spec: 0.99},
		DialOptions{Timeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("dial of a mute executor succeeded")
	}
	if !strings.Contains(err.Error(), addr) {
		t.Errorf("deadline error does not name the executor: %v", err)
	}
	if !strings.Contains(err.Error(), "attempt 1/1") {
		t.Errorf("deadline error does not carry the attempt number: %v", err)
	}
}

// TestClusterMetricsEndToEnd drives an instrumented local cluster and
// checks RPC latency, byte counters and the executors' pool series all
// materialize — the three the benchmark's cluster layer reads.
func TestClusterMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	addrs, stop, err := StartLocalObs(2, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	risks := []float64{0.05, 0.2, 0.1, 0.3}
	m, err := DialWith(addrs, risks, dilution.Binary{Sens: 0.95, Spec: 0.99},
		DialOptions{Timeout: 5 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Marginals(); err != nil {
		t.Fatal(err)
	}
	next, err := m.Condition(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()

	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] += c.Value
	}
	if counters["sbgt_cluster_bytes_sent_total"] == 0 || counters["sbgt_cluster_bytes_recv_total"] == 0 {
		t.Errorf("byte counters empty: %v", counters)
	}
	var rpcCount uint64
	for _, h := range snap.Histograms {
		if h.Name == "sbgt_cluster_rpc_seconds" {
			rpcCount += h.Count
		}
	}
	if rpcCount == 0 {
		t.Error("no RPC latencies observed")
	}
	// Executor pools report through the shared engine pool series.
	poolSeries := false
	for _, c := range snap.Counters {
		if c.Name == "sbgt_engine_pool_tasks_total" || c.Name == "sbgt_engine_pool_inline_total" {
			if c.Value > 0 {
				poolSeries = true
			}
		}
	}
	if !poolSeries {
		t.Error("executor pools reported no tasks")
	}
}
