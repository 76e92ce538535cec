package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dilution"
)

// stallExecutor speaks just enough of the RPC protocol to let DialWith
// succeed (BuildPrior, then the normalization Scale round), then goes
// silent: every later request is read and never answered, the connection
// held open. It models an executor process that wedged after dial — the
// failure mode RPCTimeout exists for.
func stallExecutor(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		close(done)
		l.Close()
	})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if err := c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
			return
		}
		for {
			req, err := ReadRequest(c)
			if err != nil {
				return
			}
			switch req.Op {
			case OpBuildPrior:
				if err := WriteResponse(c, Response{Op: req.Op, Sum: 1}); err != nil {
					return
				}
			case OpScale:
				if err := WriteResponse(c, Response{Op: req.Op}); err != nil {
					return
				}
			default:
				// Wedge: hold the connection open, answer nothing.
				<-done
				return
			}
		}
	}()
	return l.Addr().String()
}

// TestRPCTimeoutBoundsDeadExecutor is the regression test for the
// unbounded conn.call defect: before RPCTimeout existed, an executor that
// died (or wedged) after dial parked the next RPC — and the session
// driving it — forever. With the per-RPC deadline, the call must fail, and
// promptly.
func TestRPCTimeoutBoundsDeadExecutor(t *testing.T) {
	addr := stallExecutor(t)
	m, err := DialWith([]string{addr}, uniform(4, 0.1), dilution.Ideal{}, DialOptions{
		Timeout:    2 * time.Second,
		RPCTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer m.Close()
	start := time.Now()
	err = m.Ping()
	if err == nil {
		t.Fatal("Ping against a wedged executor succeeded; want a deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Ping took %v to fail; the RPC deadline did not fire", elapsed)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("error %q does not name the wedged executor %s", err, addr)
	}
}

// TestRPCTimeoutRecoversConnDeadline checks the deadline is disarmed
// between calls: a session that idles longer than RPCTimeout between
// stages must not inherit a stale deadline on its next RPC.
func TestRPCTimeoutRecoversConnDeadline(t *testing.T) {
	addrs := startExecutors(t, 1)
	m, err := DialWith(addrs, uniform(4, 0.1), dilution.Ideal{}, DialOptions{
		Timeout:    2 * time.Second,
		RPCTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer m.Close()
	if err := m.Ping(); err != nil {
		t.Fatalf("first Ping: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // outlive the per-RPC window
	if err := m.Ping(); err != nil {
		t.Fatalf("Ping after idling past RPCTimeout: %v", err)
	}
}

// TestIdleTimeoutFreesServeLoop is the regression test for the serial
// accept-loop starvation defect: a driver connection that goes silent
// (half-open TCP, a stalled process) used to hold handle's Decode forever,
// and with it the executor's single serve slot. With an idle timeout the
// executor drops the wedged connection and serves the next driver.
func TestIdleTimeoutFreesServeLoop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(1)
	e.SetIdleTimeout(100 * time.Millisecond)
	go func() { _ = e.Serve(l) }()
	t.Cleanup(func() {
		l.Close()
		e.Close()
	})

	// The wedged driver: connects, says nothing, keeps the socket open.
	wedged, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()

	// The healthy driver behind it must get served once the idle timeout
	// evicts the wedged connection.
	healthy, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if err := healthy.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := WriteRequest(healthy, Request{Op: OpPing}); err != nil {
		t.Fatalf("send ping: %v", err)
	}
	resp, err := ReadResponse(healthy)
	if err != nil {
		t.Fatalf("the executor never served the healthy driver: %v", err)
	}
	if resp.Op != OpPing || resp.Err != "" {
		t.Fatalf("ping response = %+v", resp)
	}
}
