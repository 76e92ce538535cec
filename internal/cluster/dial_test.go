package cluster_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/dilution"
	"repro/internal/obs"
	"repro/internal/posterior"
)

// errAttr returns the span's err attr ("" when it has none).
func errAttr(s obs.SpanRecord) string {
	for _, a := range s.Attrs {
		if a.Key == "err" {
			if e, ok := a.Value.(string); ok {
				return e
			}
		}
	}
	return ""
}

// faultyExecutor answers the prior build and refuses every later request
// with an executor-side error.
func faultyExecutor(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			req, err := cluster.ReadRequest(c)
			if err != nil {
				return
			}
			resp := cluster.Response{Op: req.Op, Sum: 1}
			if req.Op != cluster.OpBuildPrior {
				resp = cluster.Response{Op: req.Op, Err: "injected fault"}
			}
			if err := cluster.WriteResponse(c, resp); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// TestDialWithRetriesWrapsAddressAndAttempt pins the Dial error contract
// as a production caller reaches it, through posterior.Spec: a connection
// that keeps failing surfaces the executor address and the attempt
// number, each retry leaves a dial_retry span carrying its error on the
// spec's tracer, and an RPC that fails after dial leaves its rpc:<op>
// span with an err attr.
func TestDialWithRetriesWrapsAddressAndAttempt(t *testing.T) {
	// A listener that is immediately closed yields a refused port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	risks, resp := []float64{0.1, 0.2}, dilution.Binary{Sens: 0.95, Spec: 0.99}
	tracer := obs.NewTracer(0)
	_, err = posterior.Spec{Kind: posterior.KindCluster, Addrs: []string{dead}, DialTimeout: time.Second,
		DialAttempts: 3, Tracer: tracer}.Open(nil, risks, resp)
	if err == nil {
		t.Fatal("dial of a dead executor succeeded")
	}
	if !strings.Contains(err.Error(), dead) {
		t.Errorf("error does not name the executor: %v", err)
	}
	if !strings.Contains(err.Error(), "attempt 3/3") {
		t.Errorf("error does not carry the attempt number: %v", err)
	}
	spans, _ := tracer.Snapshot()
	retries := 0
	for _, s := range spans {
		if s.Name == "dial_retry" && errAttr(s) != "" {
			retries++
		}
	}
	if retries != 2 {
		t.Errorf("dial_retry spans with an err attr = %d, want 2: %+v", retries, spans)
	}

	m, err := posterior.Spec{Kind: posterior.KindCluster, Addrs: []string{faultyExecutor(t)},
		Tracer: tracer}.Open(nil, risks, resp)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	root := tracer.Start("session")
	posterior.Base(m).(interface{ SetTraceContext(obs.TraceContext) }).SetTraceContext(root.Context())
	if err := m.Update(bitvec.FromIndices(0), dilution.Positive); err == nil {
		t.Fatal("update on a faulty executor succeeded")
	}
	root.End()
	spans, _ = tracer.Snapshot()
	var failed *obs.SpanRecord
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "rpc:") && s.ParentID == root.Context().SpanID {
			failed = &spans[i]
		}
	}
	if failed == nil || !strings.Contains(errAttr(*failed), "injected fault") {
		t.Fatalf("failed RPC span = %+v, want an rpc:<op> span with the executor's error", failed)
	}
}
