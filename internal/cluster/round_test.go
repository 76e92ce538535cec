package cluster

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/obs"
)

// scriptedExecutor serves driver connections, one at a time, with a real
// executor, except that script may answer a request in its place: it sees
// every request first, and a non-nil answer is sent instead of serving it.
// script runs on the executor's goroutine only.
func scriptedExecutor(t *testing.T, script func(req Request) *Response) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(1)
	t.Cleanup(func() {
		l.Close()
		e.Close()
	})
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.data = nil // a new driver starts with no shard, as handle does
			e.mu.Unlock()
			for {
				req, err := ReadRequest(c)
				if err != nil {
					break
				}
				resp := script(req)
				if resp == nil {
					e.mu.Lock()
					served := e.serve(req)
					e.mu.Unlock()
					resp = &served
				}
				if err := WriteResponse(c, *resp); err != nil {
					break
				}
			}
			c.Close()
		}
	}()
	return l.Addr().String()
}

// refuse answers every request of op with an error saying why.
func refuse(op Op, why string) func(Request) *Response {
	return func(req Request) *Response {
		if req.Op != op {
			return nil
		}
		resp := errorf(op, "%s", why)
		return &resp
	}
}

// TestRoundReadsEveryExecutorAfterAnError: a round in which one executor
// answers with an error returns that error (the lowest rank's, when more
// than one fails), and still reads every other executor's response, so the
// connections stay frame-aligned: a following round reads its own
// responses, not the failed round's.
func TestRoundReadsEveryExecutorAfterAnError(t *testing.T) {
	for name, addrs := range map[string][]string{
		"rank 0 fails": {scriptedExecutor(t, refuse(OpPing, "rank 0 refuses")), startExecutors(t, 1)[0]},
		"both fail": {
			scriptedExecutor(t, refuse(OpPing, "rank 0 refuses")),
			scriptedExecutor(t, refuse(OpPing, "rank 1 refuses")),
		},
	} {
		m, err := DialWith(addrs, uniform(4, 0.2), dilution.Binary{Sens: 0.95, Spec: 0.99}, DialOptions{Timeout: 5 * time.Second, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		err = m.Ping()
		if err == nil || !strings.Contains(err.Error(), "rank 0 refuses") || !strings.Contains(err.Error(), addrs[0]) || !strings.Contains(err.Error(), "ping") {
			t.Fatalf("%s: the failed round returned %v, want rank 0's refusal of ping", name, err)
		}
		if got := rpcCount(m, OpPing); got != 2 {
			t.Fatalf("%s: %d ping responses read, want both executors'", name, got)
		}
		if err := m.Update(bitvec.FromIndices(0, 2), dilution.Positive); err != nil {
			t.Fatalf("%s: the round after the failure: %v", name, err)
		}
		post, err := m.Fetch()
		if err != nil || len(post) != 16 {
			t.Fatalf("%s: fetch after the failure read %d states, %v", name, len(post), err)
		}
		var mass float64
		for _, p := range post {
			mass += p
		}
		if math.Abs(mass-1) > 1e-12 {
			t.Fatalf("%s: fetched posterior sums to %v", name, mass)
		}
		m.Close()
	}
}

// TestRefusedLoadShardSpendsTheModel: a rebalance does not wait for its
// load-shard acks, so a refused one surfaces at the reduced model's next
// round. That round fails naming load-shard, the model's connections are
// closed, and every later call answers the same error.
func TestRefusedLoadShardSpendsTheModel(t *testing.T) {
	const n = 6
	addrs := []string{startExecutors(t, 1)[0], scriptedExecutor(t, refuse(OpLoadShard, "rank 1 refuses the move"))}
	m, err := DialWith(addrs, uniform(n, 0.1), dilution.Binary{Sens: 0.95, Spec: 0.99}, DialOptions{Timeout: 5 * time.Second, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	// The top subject negative: every survivor is on rank 0, which hands
	// half of them to rank 1.
	next, err := m.Condition(n-1, false)
	if err != nil || next == nil {
		t.Fatalf("condition: %v, %v; want the reduced model, its acks unread", next, err)
	}
	defer next.Close()
	first := next.Update(bitvec.FromIndices(0, 1), dilution.Negative)
	if first == nil || !strings.Contains(first.Error(), "load-shard") || !strings.Contains(first.Error(), "rank 1 refuses the move") {
		t.Fatalf("the round after the refused move answered %v, want the load-shard refusal", first)
	}
	if next.conns != nil {
		t.Fatal("a failed ack left the model's connections open")
	}
	if got := rpcCount(next, OpLoadShard); got != 2 {
		t.Fatalf("%d load-shard acks observed, want both executors'", got)
	}
	errs := map[string]error{"Update": next.Update(bitvec.FromIndices(2), dilution.Positive), "Ping": next.Ping()}
	_, errs["Marginals"] = next.Marginals()
	_, errs["Entropy"] = next.Entropy()
	_, errs["Mass"] = next.Mass()
	_, errs["Fetch"] = next.Fetch()
	_, errs["NegMasses"] = next.NegMasses([]bitvec.Mask{1})
	_, errs["PrefixNegMasses"] = next.PrefixNegMasses([]int{0, 1})
	_, errs["Condition"] = next.Condition(0, true)
	for call, err := range errs {
		if err == nil || err.Error() != first.Error() {
			t.Errorf("%s after the failed ack answered %v, want %v", call, err, first)
		}
	}
}

// TestLargeRebalanceDoesNotDeadlock: a collapse of the top subject at N=20
// on two executors moves 2 MB from one executor to the driver and 2 MB on
// to the other, more than loopback socket buffers hold. The driver reads
// every collapse response before it writes the move, and the next update
// reads the move's ack first, so both finish.
func TestLargeRebalanceDoesNotDeadlock(t *testing.T) {
	const n = 20
	addrs := startExecutors(t, 2)
	m, err := DialWith(addrs, uniform(n, 0.05), dilution.Binary{Sens: 0.95, Spec: 0.99}, DialOptions{Timeout: 10 * time.Second, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		m     *Model
		moved uint64
		err   error
	}
	done := make(chan result, 1)
	go func() {
		before := wireBytes(m)
		next, err := m.Condition(n-1, false)
		if err != nil || next == nil {
			m.Close()
			done <- result{err: err}
			return
		}
		err = next.Update(bitvec.FromIndices(0, 7, 13), dilution.Positive)
		done <- result{next, wireBytes(next) - before, err}
	}()
	select {
	case r := <-done:
		if r.m == nil || r.err != nil {
			t.Fatalf("collapse then update: %v", r.err)
		}
		defer r.m.Close()
		if r.moved < 4<<20 {
			t.Fatalf("the collapse moved %d bytes, want 2 MiB each way", r.moved)
		}
		if mass, err := r.m.Mass(); err != nil || math.Abs(mass-1) > 1e-9 {
			t.Fatalf("mass after the rebalance and update: %v, %v", mass, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a collapse that moves 2 MiB each way and the update after it did not finish in 10 s")
	}
}
