package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/wire"
)

// frameSeeds returns one frame per op as a campaign's driver sends it, the
// responses an executor sends back (a traced one carrying its spans, a
// rebalancing collapse, a refusal), and frames a decoder must refuse: a gob
// stream, another version, a length that lies.
func frameSeeds(tb testing.TB) (msgs []anyMessage, bad [][]byte) {
	tracer := obs.NewTracer(0)
	root := tracer.Start("rpc:update-mul")
	span := tracer.StartUnder("exec:update-mul", root.Context(), obs.A("states", 131072))
	kernel := span.Child("kernel")
	kernel.End()
	span.End()
	root.End()
	// The spans as the driver receives them: attribute values as strings,
	// starts as Unix nanoseconds.
	var spans []obs.SpanRecord
	for _, s := range []*obs.Span{span, kernel} {
		rec, ok := s.Record()
		if !ok {
			tb.Fatal("no span record")
		}
		rec.Start = time.Unix(0, rec.Start.UnixNano())
		for i, a := range rec.Attrs {
			rec.Attrs[i].Value = fmt.Sprint(a.Value)
		}
		spans = append(spans, rec)
	}
	marg := []float64{0.05, 0.31, 0.0041, 0.5, 1e-300, 0.999}
	tables := [][]float64{{0.01, 0.95, 0.95}, {0.01, 0.95}}
	msgs = []anyMessage{
		&Request{Op: OpPing},
		&Request{Op: OpBuildPrior, Risks: []float64{0.05, 0.05, 0.1, 0.2, 0.05, 0.3}, Hi: 32},
		&Request{Op: OpBuildPrior, Risks: []float64{0.05, 0.05, 0.1, 0.2, 0.05, 0.3}, Lo: 32, Hi: 64},
		&Request{Op: OpUpdateMul, Pool: 0b100110, Lik: []float64{0.0099, 0.05, 0.05, 0.05}},
		&Request{Op: OpUpdateMul, Pool: 0b11, Lik: []float64{1.9, 0.1, 0.1}, Trace: root.Context().Encode()},
		&Request{Op: OpDotLik, Pool: 0b11, Lik: []float64{1, 0, 0}},
		&Request{Op: OpScale, Factor: 3.7},
		&Request{Op: OpSumWhere, Pool: 1 << 4, Base: 1 << 4},
		&Request{Op: OpMarginals},
		&Request{Op: OpMarginals, BranchPools: []uint64{0b11, 0b100}, BranchTables: tables},
		&Request{Op: OpNegMasses, Cands: []uint64{1, 3, 7, 15}},
		&Request{Op: OpEntropy},
		&Request{Op: OpMass},
		&Request{Op: OpFetch},
		&Request{Op: OpPrefix, Order: []int{3, 0, 5, 1, 4, 2}},
		&Request{Op: OpPrefix, Order: []int{3, 0, 5}, BranchPools: []uint64{0b11, 0b100}, BranchTables: tables},
		&Request{Op: OpCollapse, Pool: 1 << 5, Base: 1 << 5, Lo: 16, Hi: 32},
		&Request{Op: OpLoadShard, Lo: 16, Hi: 32, Data: []float64{0.01, 0.02, 0.03, 0.04}},
		&Request{Op: OpLoadShard, Lo: 2, Hi: 2}, // an empty shard
		&Response{Op: OpPing},
		&Response{Op: OpUpdateMul, Sum: 0.4125, Vec: marg},
		&Response{Op: OpUpdateMul, Sum: 0.4125, Vec: marg, Spans: spans},
		&Response{Op: OpPrefix, Vec: []float64{0.1, 0, 0.2, 0.3}},
		&Response{Op: OpCollapse, Sum: 0.8, Vec: marg[:5], Data: []float64{0.01, 0.02}},
		&Response{Op: OpFetch, Vec: []float64{0.25, 0.25, 0.25, 0.25}},
		&Response{Op: OpMarginals, Err: "no shard built"},
	}
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(Request{Op: OpPing}); err != nil {
		tb.Fatal(err)
	}
	lies := []byte(frameMagic + "\x01\xff\xff\xff\xff\x01\x00\x00\x00\x00")
	bad = [][]byte{gobbed.Bytes(), []byte(frameMagic + "\x02\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), append(lies, "partial"...)}
	return msgs, bad
}

// anyMessage is a *Request or a *Response.
type anyMessage interface{ code(*wire.Codec) *Op }

// encode is the one frame a writer makes of m.
func encode(tb testing.TB, m anyMessage) []byte {
	var out bytes.Buffer
	var err error
	switch m := m.(type) {
	case *Request:
		err = writeRequest(&out, new([]byte), m)
	case *Response:
		err = writeResponse(&out, new([]byte), m)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// read reads one frame from r into m.
func read(r io.Reader, m anyMessage) error {
	if req, ok := m.(*Request); ok {
		return readRequest(r, new([]byte), req)
	}
	return readResponse(r, new([]byte), m.(*Response))
}

// TestFrameRoundTrip: every seed reads back as the value it was written
// from.
func TestFrameRoundTrip(t *testing.T) {
	msgs, _ := frameSeeds(t)
	for _, want := range msgs {
		got := reflect.New(reflect.TypeOf(want).Elem()).Interface().(anyMessage)
		if err := read(bytes.NewReader(encode(t, want)), got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("read %+v, %v; want %+v", got, err, want)
		}
	}
}

// FuzzFrame feeds arbitrary bytes to the frame reader, as a request and as
// a response: it never panics, never allocates more than a small multiple
// of the input (a read chunk besides), and a frame it accepts re-encodes
// to the same bytes.
func FuzzFrame(f *testing.F) {
	msgs, bad := frameSeeds(f)
	for _, m := range msgs {
		f.Add(encode(f, m))
	}
	for _, in := range bad {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var req Request
		var resp Response
		reqIn, respIn := bytes.NewReader(in), bytes.NewReader(in)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reqErr := read(reqIn, &req)
		respErr := read(respIn, &resp)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(in))+4*frameChunk; got > limit {
			t.Fatalf("reading %d bytes allocated %d, over %d", len(in), got, limit)
		}
		// What follows a frame in the stream is the next frame's.
		for _, got := range []struct {
			err  error
			m    anyMessage
			left int
		}{{reqErr, &req, reqIn.Len()}, {respErr, &resp, respIn.Len()}} {
			if frame := in[:len(in)-got.left]; got.err == nil && !bytes.Equal(encode(t, got.m), frame) {
				t.Fatalf("%+v re-encodes to\n%x, not\n%x", got.m, encode(t, got.m), frame)
			}
		}
	})
}

// TestNewConnectionStartsUnbuilt: a driver's shard does not outlive its
// connection. After driver A builds, updates and hangs up, a second
// connection to the same executor is refused every shard op until it has
// built its own prior, and then reads that prior, not A's posterior.
func TestNewConnectionStartsUnbuilt(t *testing.T) {
	addrs := startExecutors(t, 1)
	a, err := DialWith(addrs, uniform(3, 0.3), dilution.Binary{Sens: 0.95, Spec: 0.99}, DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Update(bitvec.FromIndices(0, 2), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	round := func(req Request) Response {
		t.Helper()
		if err := WriteRequest(b, req); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, req := range []Request{{Op: OpFetch}, {Op: OpMarginals}, {Op: OpUpdateMul, Pool: 1, Lik: []float64{0.5, 0.5}}} {
		if resp := round(req); !strings.Contains(resp.Err, "no shard built") {
			t.Errorf("%s on a fresh connection answered %+v, want a refusal", req.Op, resp)
		}
	}
	risks := uniform(3, 0.1)
	if resp := round(Request{Op: OpBuildPrior, Risks: risks, Hi: 8}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	base, odds, err := lattice.PriorOdds(risks)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 8)
	lattice.FillPrior(0, want, base, odds)
	if got := round(Request{Op: OpFetch}).Vec; !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch after the build read %v, want the connection's own prior %v", got, want)
	}
}

// lockedBuffer is a log sink the executor's goroutine writes while the
// test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// fakePeer serves each accepted connection with serve, then closes it.
func fakePeer(t *testing.T, serve func(c net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err == nil {
				serve(c)
			}
			c.Close()
		}
	}()
	return l.Addr().String()
}

// otherVersion is a frame header of a protocol version this build does not
// speak, with an empty payload.
var otherVersion = []byte(frameMagic + "\x02\x00\x00\x00\x00\x00\x00\x00\x00")

// TestProtocolIdentity: a peer speaking gob, or another frame version,
// meets one clear error at once, in both directions. A driver's names the
// executor and says both sides must be upgraded together, without waiting
// out its dial timeout; an executor logs, drops the connection and serves
// the next driver.
func TestProtocolIdentity(t *testing.T) {
	peers := map[string]struct {
		serve func(c net.Conn)
		want  string
	}{
		// An executor from before the frame: its gob decoder fails on the
		// magic's first byte and hangs up.
		"gob executor": {func(c net.Conn) {
			var req Request
			if err := gob.NewDecoder(c).Decode(&req); err == nil {
				t.Errorf("gob decoded a frame: %+v", req)
			}
		}, "hung up on its first frame"},
		// A gob peer that speaks first.
		"gob answer": {func(c net.Conn) {
			_ = gob.NewEncoder(c).Encode(Response{Op: OpBuildPrior})
			_, _ = io.Copy(io.Discard, c)
		}, "not a cluster frame"},
		"newer executor": {func(c net.Conn) {
			if _, err := ReadRequest(c); err == nil {
				_, _ = c.Write(otherVersion)
			}
		}, "frame version 2"},
	}
	for name, peer := range peers {
		addr := fakePeer(t, peer.serve)
		start := time.Now()
		_, err := DialWith([]string{addr}, uniform(4, 0.1), dilution.Ideal{}, DialOptions{Timeout: 5 * time.Second})
		if err == nil {
			t.Fatalf("%s: dial succeeded", name)
		}
		for _, want := range []string{addr, peer.want, upgradeTogether} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not say %q", name, err, want)
			}
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%s: the error took %v", name, elapsed)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	e := NewExecutor(1)
	e.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
	go func() { _ = e.Serve(l) }()
	t.Cleanup(func() {
		l.Close()
		e.Close()
	})
	drivers := map[string]func(c net.Conn) error{
		"not a cluster frame": func(c net.Conn) error { return gob.NewEncoder(c).Encode(Request{Op: OpPing}) },
		"frame version 2":     func(c net.Conn) error { _, err := c.Write(otherVersion); return err },
	}
	for want, send := range drivers {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		_ = send(c) // the executor may hang up before the message ends
		// Hung up: EOF, or a reset when the rest of the gob message was
		// still unread. A timeout means it waited for more bytes.
		var one [1]byte
		var timeout net.Error
		if n, err := c.Read(one[:]); n != 0 || err == nil || errors.As(err, &timeout) && timeout.Timeout() {
			t.Errorf("%s: the executor answered (%d bytes, %v) instead of hanging up", want, n, err)
		}
		c.Close()
		if !strings.Contains(logs.String(), want) {
			t.Errorf("executor log %q does not say %q", logs.String(), want)
		}
	}
	m, err := DialWith([]string{l.Addr().String()}, uniform(4, 0.1), dilution.Ideal{}, DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("the executor did not serve the next driver: %v", err)
	}
	defer m.Close()
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkClusterRound prices one driver↔executor round at N=18 on two
// loopback executors, allocations included (run it with -benchmem; the
// executors run in the benchmark's process, so theirs count too): a ping
// (frames and loopback alone), an update (the update-mul kernel and its
// marginal partials), a collapse of the top subject with the rebalance it
// forces (two rounds, a quarter of the lattice moved), and a cohort's
// dial, prior build and close. make bench-smoke runs it at -benchtime 1x.
func BenchmarkClusterRound(b *testing.B) {
	const n = 18
	addrs, stop, err := StartLocalObs(2, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	// A flat response, as the lattice stage benchmarks use: no state decays
	// toward denormals however many updates run.
	resp := dilution.Binary{Sens: 0.5, Spec: 0.5}
	dial := func(b *testing.B) *Model {
		m, err := DialWith(addrs, uniform(n, 0.05), resp, DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("ping", func(b *testing.B) {
		m := dial(b)
		defer m.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update", func(b *testing.B) {
		m := dial(b)
		defer m.Close()
		pool := bitvec.FromIndices(1, 5, 9, 13)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Update(pool, dilution.Outcome{Positive: i%2 == 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("collapse_rebalance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := dial(b)
			b.StartTimer()
			next, err := m.Condition(n-1, false)
			b.StopTimer()
			if err != nil || next == nil {
				b.Fatalf("condition: %v, %v", next, err)
			}
			next.Close()
			b.StartTimer()
		}
	})
	b.Run("dial_build_close", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dial(b).Close()
		}
	})
}
