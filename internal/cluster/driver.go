package cluster

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/prob"
)

// conn is one executor connection with its shard assignment. rank is the
// executor's stable index in the fan-out — the bounded-cardinality label
// dial and RPC metrics use instead of the (ephemeral) host:port string.
// bufs are the frame buffers its rounds reuse, handed on at Close.
type conn struct {
	addr   string
	rank   int
	nc     net.Conn
	r      *bufio.Reader
	bufs   *frameBuffers
	lo, hi uint64
	met    *clusterMetrics // nil when the model is uninstrumented
	// rpcTimeout bounds each call's send+receive round; <= 0 leaves the
	// connection unbounded (the pre-RPCTimeout behaviour, where a dead
	// executor parked the calling goroutine — and its session — forever).
	rpcTimeout time.Duration
}

// call sends one request and waits for its response.
func (c *conn) call(req Request) (Response, error) {
	if c.met != nil {
		stop := c.met.rpcHist(req.Op, c.rank).Time()
		defer stop()
	}
	if c.rpcTimeout > 0 {
		if err := c.nc.SetDeadline(time.Now().Add(c.rpcTimeout)); err != nil {
			return Response{}, fmt.Errorf("cluster: arm rpc deadline for %s to %s: %w", req.Op, c.addr, err)
		}
		// Disarm after the round so an idle session between stages cannot
		// trip a stale deadline on the next call's write.
		defer c.nc.SetDeadline(time.Time{})
	}
	if err := writeRequest(c.nc, &c.bufs.w, &req); err != nil {
		return Response{}, fmt.Errorf("cluster: send %s to %s: %w", req.Op, c.addr, err)
	}
	var resp Response
	if err := readResponse(c.r, &c.bufs.r, &resp); err != nil {
		return Response{}, fmt.Errorf("cluster: recv %s from %s: %w", req.Op, c.addr, err)
	}
	if resp.Err != "" {
		return Response{}, fmt.Errorf("cluster: executor %s: %s: %s", c.addr, req.Op, resp.Err)
	}
	return resp, nil
}

// DefaultRPCTimeout is the post-dial per-RPC bound DialWith applies when
// DialOptions.RPCTimeout is zero. It is deliberately generous — an RPC
// covers a full shard kernel on the largest supported lattice — while
// still guaranteeing that a dead executor fails the fan-out instead of
// hanging the session forever.
const DefaultRPCTimeout = 2 * time.Minute

// MaxSubjects bounds the cohort size of one distributed lattice model:
// the full 2^N lattice must fit a uint64 state count, and shards are
// dense float64 arrays like the in-process engine's (whose own bound is
// lattice.MaxSubjects).
const MaxSubjects = 30

// Model is the driver-side distributed lattice model. It mirrors the
// relevant subset of lattice.Model's API; every method fans out to all
// executors and merges partials in executor-rank order.
//
// A Model is not safe for concurrent use (like its local counterpart).
type Model struct {
	conns []*conn
	n     int
	risks []float64
	resp  dilution.Response
	tests int
	met   *clusterMetrics // nil when uninstrumented; shared by the conns
	// scale and prior are lattice.Model's, for the shards: the posterior is
	// scale × what the executors hold, and prior marks the untouched prior.
	scale float64
	prior bool
	// marg is lattice.Model's held marginals: the risks, then the last
	// Update's or Condition's partials, merged and scaled, until Fetch.
	marg  []float64
	spent error // what every call answers once the model holds no connections

	// Distributed tracing state: when tracer is set and parent holds a
	// valid context (injected by the session via SetTraceContext), every
	// fan-out RPC opens an rpc:<op> span under parent, propagates its
	// context in the request frame, and absorbs the executor-side spans
	// shipped back in the response trailer. Both transfer to the reduced
	// model on Condition, like the connections themselves.
	tracer *obs.Tracer
	parent obs.TraceContext
}

// SetTraceContext points subsequent RPC spans at a new parent — the
// session calls this with each stage-phase span's context so driver and
// executor spans land under the right node of the session trace. An
// invalid (zero) context disables tracing for subsequent calls.
func (m *Model) SetTraceContext(tc obs.TraceContext) { m.parent = tc }

// call issues one RPC on c, wrapped in a driver-side span when tracing
// is active: the span's context rides in the request frame, and the
// executor's completed spans come back in the response trailer and are
// absorbed into the driver's tracer.
func (m *Model) call(c *conn, req Request) (Response, error) {
	var span *obs.Span
	if m.tracer != nil && m.parent.Valid() {
		span = m.tracer.StartUnder("rpc:"+req.Op.String(), m.parent, obs.A("executor", c.rank))
		req.Trace = span.Context().Encode()
	}
	resp, err := c.call(req)
	if span != nil {
		span.Fail(err)
		m.tracer.Absorb(resp.Spans...)
		span.End()
	}
	return resp, err
}

// DialOptions tunes DialWith beyond the required executor set.
type DialOptions struct {
	// Timeout bounds each connection attempt — the TCP dial plus that
	// executor's prior-materialization round. <= 0 means no deadline.
	Timeout time.Duration
	// Attempts is how many times each executor is dialed before its
	// failure aborts the fan-out (<= 0 selects 1). Each retry is a
	// zero-length dial_retry span on Tracer carrying the failed attempt's
	// err.
	Attempts int
	// RPCTimeout bounds every post-dial RPC round (request send plus
	// response receive) on each connection. 0 selects DefaultRPCTimeout;
	// negative disables the bound entirely, restoring the old behaviour in
	// which a dead executor parks the calling goroutine forever.
	RPCTimeout time.Duration
	// Obs, when non-nil, receives driver-side metrics: per-op RPC latency
	// histograms and bytes sent/received. Per-executor series use the
	// stable fan-out rank as the executor label, not the host:port string.
	Obs *obs.Registry
	// Tracer, when non-nil, records driver-side rpc:<op> spans (a failed
	// RPC's carries an err attr) and absorbs the executor spans shipped
	// back in response trailers. RPC spans are only emitted once
	// SetTraceContext installs a valid parent context; dial_retry spans
	// are roots.
	Tracer *obs.Tracer
}

// dialOne runs one connection attempt: TCP dial, deadline, prior build.
// Errors are unadorned — DialWith wraps them with the executor address
// and attempt number.
func dialOne(addr string, rank int, lo, hi uint64, risks []float64, timeout, rpcTimeout time.Duration, met *clusterMetrics) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if met != nil {
		nc = &countingConn{Conn: nc, sent: met.bytesSent, recv: met.bytesRecv}
	}
	if timeout > 0 {
		// The same per-connection deadline also bounds the prior build: a
		// hung executor fails this dial, not the whole fan-out serially.
		if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
			nc.Close() //lint:allow errcheck teardown of a connection we are abandoning
			return nil, fmt.Errorf("set deadline: %w", err)
		}
	}
	c := &conn{addr: addr, rank: rank, nc: nc, r: bufio.NewReader(nc), bufs: spareBuffers.Get().(*frameBuffers), lo: lo, hi: hi, met: met}
	if _, err := c.call(Request{Op: OpBuildPrior, Risks: risks, Lo: lo, Hi: hi}); err != nil {
		nc.Close() //lint:allow errcheck teardown of a connection we are abandoning
		if errors.Is(err, io.EOF) {
			// An executor that cannot read this frame hangs up on it.
			err = fmt.Errorf("%w (the executor hung up on its first frame: %s)", err, upgradeTogether)
		}
		return nil, err
	}
	if timeout > 0 {
		if err := nc.SetDeadline(time.Time{}); err != nil {
			nc.Close() //lint:allow errcheck teardown of a connection we are abandoning
			return nil, fmt.Errorf("clear deadline: %w", err)
		}
	}
	// Arm per-RPC deadlines only now: the dial deadline above owns the
	// prior-build round, so the two bounds never fight over the socket.
	c.rpcTimeout = rpcTimeout
	return c, nil
}

// DialWith connects to the executors, shards the lattice across them
// proportionally to their order, and materializes the prior product
// measure remotely. Its normaliser is carried on the model, not applied,
// and comes from lattice.PriorTotal's closed form, not from the shards.
//
// Executors are dialed concurrently, and opts.Timeout applies per
// connection — covering both the TCP dial and that executor's
// prior-materialization round — so N executors cost one timeout
// worst-case, not N of them. Every connection failure — including that
// deadline firing mid prior build — is wrapped with the executor address
// and the attempt number, so a failed fan-out names the executor that sank
// it. A degenerate prior (the all-negative mass underflows to 0) is
// refused before anything is dialed.
func DialWith(addrs []string, risks []float64, resp dilution.Response, opts DialOptions) (*Model, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no executors")
	}
	n := len(risks)
	if n == 0 || n > MaxSubjects {
		return nil, fmt.Errorf("cluster: cohort size %d outside [1,%d]", n, MaxSubjects)
	}
	if resp == nil {
		return nil, fmt.Errorf("cluster: nil response model")
	}
	base, odds, err := lattice.PriorOdds(risks)
	if err != nil {
		return nil, fmt.Errorf("cluster: %v", err)
	}
	mass := lattice.PriorTotal(base, odds)
	if !lattice.ValidFactor(1 / mass) {
		return nil, fmt.Errorf("cluster: degenerate prior (total %v)", mass)
	}
	total := uint64(1) << uint(n)
	if uint64(len(addrs)) > total {
		return nil, fmt.Errorf("cluster: more executors (%d) than states (%d)", len(addrs), total)
	}
	attempts := opts.Attempts
	if attempts < 1 {
		attempts = 1
	}
	rpcTimeout := opts.RPCTimeout
	if rpcTimeout == 0 {
		rpcTimeout = DefaultRPCTimeout
	}
	met := newClusterMetrics(opts.Obs, len(addrs))
	conns := make([]*conn, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		lo, hi := shardRange(total, len(addrs), i)
		wg.Add(1)
		go func(i int, addr string, lo, hi uint64) {
			defer wg.Done()
			for attempt := 1; attempt <= attempts; attempt++ {
				c, err := dialOne(addr, i, lo, hi, risks, opts.Timeout, rpcTimeout, met)
				if err == nil {
					conns[i] = c
					return
				}
				errs[i] = fmt.Errorf("cluster: executor %s attempt %d/%d: %w", addr, attempt, attempts, err)
				if attempt < attempts {
					opts.Tracer.Start("dial_retry", obs.A("executor", i), obs.A("addr", addr),
						obs.A("attempt", attempt), obs.A("err", err.Error())).End()
				}
			}
		}(i, addr, lo, hi)
	}
	wg.Wait()
	m := &Model{conns: make([]*conn, 0, len(addrs)), n: n, risks: append([]float64(nil), risks...), resp: resp, scale: 1 / mass, prior: true, marg: append([]float64(nil), risks...), met: met, tracer: opts.Tracer}
	var firstErr error
	for i, c := range conns {
		if c != nil {
			m.conns = append(m.conns, c)
		} else if firstErr == nil {
			firstErr = errs[i] // first failure in executor-rank order
		}
	}
	if firstErr != nil {
		m.Close()
		return nil, firstErr
	}
	return m, nil
}

// Close tears down every connection. Executors stay alive for the next
// driver; they stop when their owner closes their listeners.
func (m *Model) Close() {
	for _, c := range m.conns {
		if c.nc != nil {
			c.nc.Close() //lint:allow errcheck one-way teardown; a close error leaves nothing to recover
		}
		if c.bufs != nil {
			spareBuffers.Put(c.bufs)
			c.bufs = nil
		}
	}
	m.conns, m.prior, m.marg, m.spent = nil, false, nil, cmp.Or(m.spent, errClosed)
}

// What a model without connections answers (its prior and marginals
// dropped, every call reaches fanout), rather than merging nothing to 0.
var (
	errClosed      = errors.New("cluster: model is closed")
	errConditioned = errors.New("cluster: model was conditioned; its executors belong to the model Condition returned")
)

// N returns the cohort size.
func (m *Model) N() int { return m.n }

// Risks returns the prior risk vector (a copy).
func (m *Model) Risks() []float64 { return append([]float64(nil), m.risks...) }

// Response returns the assay model updates use.
func (m *Model) Response() dilution.Response { return m.resp }

// Tests returns how many outcomes have been absorbed.
func (m *Model) Tests() int { return m.tests }

// shardRange returns executor i's share [lo, hi) of an even split of total
// states over k executors: contiguous, in rank order, sizes differing by at
// most one (the larger shards first).
func shardRange(total uint64, k, i int) (lo, hi uint64) {
	per, rem := total/uint64(k), total%uint64(k)
	lo = uint64(i)*per + min(uint64(i), rem)
	hi = lo + per
	if uint64(i) < rem {
		hi++
	}
	return lo, hi
}

// fanout issues build(c) on every executor concurrently and returns the
// responses in executor-rank order (first error wins).
func (m *Model) fanout(build func(c *conn) Request) ([]Response, error) {
	if m.spent != nil {
		return nil, m.spent
	}
	resps := make([]Response, len(m.conns))
	errs := make([]error, len(m.conns))
	var wg sync.WaitGroup
	wg.Add(len(m.conns))
	for i, c := range m.conns {
		go func(i int, c *conn) {
			defer wg.Done()
			resps[i], errs[i] = m.call(c, build(c))
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// mergeSum merges scalar partials with compensation, in rank order.
func mergeSum(resps []Response) float64 {
	var acc prob.Accumulator
	for _, r := range resps {
		acc.Add(r.Sum)
	}
	return acc.Value()
}

// mergeVec merges vector partials element-wise in rank order and
// multiplies in the carried scale (1 once settled).
func (m *Model) mergeVec(resps []Response, length int) ([]float64, error) {
	vecs := make([][]float64, len(resps))
	for i, r := range resps {
		if len(r.Vec) != length {
			return nil, fmt.Errorf("cluster: partial vector has %d entries, want %d", len(r.Vec), length)
		}
		vecs[i] = r.Vec
	}
	return lattice.MergeVec(vecs, length, m.scale), nil
}

// fanoutSum fans out and merges the scalar partials (0 beside an error).
func (m *Model) fanoutSum(build func(c *conn) Request) (float64, error) {
	resps, err := m.fanout(build)
	return mergeSum(resps), err
}

// fanoutVec fans out and merges the vector partials, scale included.
func (m *Model) fanoutVec(length int, build func(c *conn) Request) ([]float64, error) {
	resps, err := m.fanout(build)
	if err != nil {
		return nil, err
	}
	return m.mergeVec(resps, length)
}

// settle applies the carried normaliser to the shards — the one OpScale
// round — for the readers that take raw mass.
func (m *Model) settle() error {
	if m.scale == 1 { //lint:allow floats exactly 1 marks "nothing pending", not a numeric test
		return nil
	}
	_, err := m.fanout(func(*conn) Request { return Request{Op: OpScale, Factor: m.scale} })
	if err == nil {
		m.scale = 1
	}
	return err
}

// Update folds one pooled-test outcome into the distributed posterior in one
// fused round, as lattice.Model.Update does in one pass: OpUpdateMul returns
// each shard's product total and marginal partials, the merged total's
// reciprocal is the new carried scale, and the merged partials times it are
// the marginals held for the Marginals call that follows. A table with an
// entry that could zero the shards takes a non-mutating OpDotLik round
// first: an impossible outcome is an error with the posterior untouched.
func (m *Model) Update(pool bitvec.Mask, y dilution.Outcome) error {
	if pool == 0 {
		return fmt.Errorf("cluster: empty pool")
	}
	if !pool.SubsetOf(bitvec.Full(m.n)) {
		return fmt.Errorf("cluster: pool %v outside cohort of %d", pool, m.n)
	}
	lik, err := lattice.LikelihoodTable(m.resp, y, pool.Count())
	if err != nil {
		return fmt.Errorf("cluster: %v", err)
	}
	lattice.Scale(lik, m.scale)
	round := func(op Op) (resps []Response, total float64, err error) {
		if resps, err = m.fanout(func(*conn) Request { return Request{Op: op, Pool: uint64(pool), Lik: lik} }); err == nil {
			if total = mergeSum(resps); !lattice.ValidFactor(1 / total) {
				err = fmt.Errorf("cluster: outcome %v on pool %v has zero total likelihood", y, pool)
			}
		}
		return resps, total, err
	}
	if !lattice.ValidFactor(1 / slices.Min(lik)) { // a zero entry: look before multiplying
		if _, _, err := round(OpDotLik); err != nil {
			return err
		}
	}
	m.marg = nil
	resps, total, err := round(OpUpdateMul)
	if err != nil {
		return err
	}
	m.scale, m.prior = 1/total, false
	m.tests++
	m.marg, err = m.mergeVec(resps, m.n)
	return err
}

// Marginals returns every subject's posterior infection probability: no
// round at the prior or after an Update or a Condition, else one OpMarginals round.
func (m *Model) Marginals() ([]float64, error) {
	if m.prior {
		return m.Risks(), nil
	}
	if m.marg != nil {
		return slices.Clone(m.marg), nil
	}
	return m.fanoutVec(m.n, func(*conn) Request {
		return Request{Op: OpMarginals}
	})
}

// NegMasses scores every candidate pool in one distributed sweep.
func (m *Model) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	masks := make([]uint64, len(cands))
	for i, c := range cands {
		masks[i] = uint64(c)
	}
	if err := m.settle(); err != nil {
		return nil, err
	}
	return m.fanoutVec(len(cands), func(*conn) Request {
		return Request{Op: OpNegMasses, Cands: masks}
	})
}

// Entropy returns the posterior entropy in bits.
func (m *Model) Entropy() (float64, error) {
	if m.prior {
		return lattice.PriorEntropy(m.risks), nil
	}
	if err := m.settle(); err != nil {
		return 0, err
	}
	nats, err := m.fanoutSum(func(*conn) Request {
		return Request{Op: OpEntropy}
	})
	if err != nil {
		return 0, err
	}
	return nats / math.Ln2, nil
}

// Mass returns the total posterior mass (≈1 between updates).
func (m *Model) Mass() (float64, error) {
	if err := m.settle(); err != nil {
		return 0, err
	}
	return m.fanoutSum(func(*conn) Request {
		return Request{Op: OpMass}
	})
}

// Fetch materializes the full posterior on the driver, in state order.
// Intended for tests and small lattices only: it moves 8·2^N bytes. Like
// lattice.Model.Posterior, its dense counterpart, it ends the held marginals.
func (m *Model) Fetch() ([]float64, error) {
	m.marg = nil
	if err := m.settle(); err != nil {
		return nil, err
	}
	resps, err := m.fanout(func(*conn) Request {
		return Request{Op: OpFetch}
	})
	if err != nil {
		return nil, err
	}
	var out []float64
	for i, r := range resps {
		want := int(m.conns[i].hi - m.conns[i].lo)
		if len(r.Vec) != want {
			return nil, fmt.Errorf("cluster: shard %d returned %d states, want %d", i, len(r.Vec), want)
		}
		out = append(out, r.Vec...)
	}
	return out, nil
}

// Ping verifies every executor is reachable.
func (m *Model) Ping() error {
	_, err := m.fanout(func(*conn) Request { return Request{Op: OpPing} })
	return err
}
