package cluster

import (
	"net"
	"strconv"

	"repro/internal/obs"
)

// allOps enumerates the protocol for per-op metric registration.
var allOps = []Op{
	OpPing, OpBuildPrior, OpUpdateMul, OpScale, OpSumWhere, OpMarginals,
	OpNegMasses, OpEntropy, OpMass, OpFetch, OpShutdown,
	OpPrefix, OpLoadShard, OpSummary, OpCollapse, OpDotLik,
}

// clusterMetrics is the driver-side reporting surface, shared by every
// executor connection of one model (and transferred with them on
// Condition). A nil *clusterMetrics disables all reporting.
//
// Per-executor series are labelled by the executor's stable fan-out rank
// ("0", "1", …) rather than its host:port: ranks bound the label
// cardinality at the fan-out width and stay comparable across redials,
// where raw addresses would mint a fresh series per ephemeral port.
type clusterMetrics struct {
	reg         *obs.Registry
	rpc         []map[Op]*obs.Histogram // round-trip latency by executor rank and op
	bytesSent   *obs.Counter
	bytesRecv   *obs.Counter
	dialRetries []*obs.Counter // by executor rank
}

func newClusterMetrics(reg *obs.Registry, executors int) *clusterMetrics {
	if reg == nil {
		return nil
	}
	m := &clusterMetrics{
		reg:         reg,
		rpc:         make([]map[Op]*obs.Histogram, executors),
		bytesSent:   reg.Counter("sbgt_cluster_bytes_sent_total"),
		bytesRecv:   reg.Counter("sbgt_cluster_bytes_recv_total"),
		dialRetries: make([]*obs.Counter, executors),
	}
	for rank := 0; rank < executors; rank++ {
		idx := obs.L("executor", strconv.Itoa(rank))
		m.dialRetries[rank] = reg.Counter("sbgt_cluster_dial_retries_total", idx)
		m.rpc[rank] = make(map[Op]*obs.Histogram, len(allOps))
		for _, op := range allOps {
			m.rpc[rank][op] = reg.Histogram("sbgt_cluster_rpc_seconds", nil, obs.L("op", op.String()), idx)
		}
	}
	return m
}

// rpcHist returns the latency histogram for one (op, executor-rank) pair.
func (m *clusterMetrics) rpcHist(op Op, rank int) *obs.Histogram {
	if m == nil || rank < 0 || rank >= len(m.rpc) {
		return nil // nil *obs.Histogram still times; it just records nowhere
	}
	return m.rpc[rank][op]
}

// dialRetry counts one redial of the executor at the given rank.
func (m *clusterMetrics) dialRetry(rank int) {
	if m == nil || rank < 0 || rank >= len(m.dialRetries) {
		return
	}
	m.dialRetries[rank].Inc()
}

// noteShards publishes the fan-out width and each connection's shard size
// (kept current across Condition re-sharding).
func (m *clusterMetrics) noteShards(conns []*conn) {
	if m == nil {
		return
	}
	m.reg.Gauge("sbgt_cluster_executors").Set(float64(len(conns)))
	for i, c := range conns {
		m.reg.Gauge("sbgt_cluster_shard_states", obs.L("executor", strconv.Itoa(i))).
			Set(float64(c.hi - c.lo))
	}
}

// countingConn counts bytes moved over one executor connection. The
// deadline and close methods pass through the embedded net.Conn.
type countingConn struct {
	net.Conn
	sent, recv *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	//lint:allow deadline passthrough wrapper; the owner of the wrapped conn arms deadlines
	n, err := c.Conn.Read(p)
	c.recv.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	//lint:allow deadline passthrough wrapper; the owner of the wrapped conn arms deadlines
	n, err := c.Conn.Write(p)
	c.sent.Add(uint64(n))
	return n, err
}

// executorMetrics is the executor-side reporting surface.
type executorMetrics struct {
	requests map[Op]*obs.Counter
	shard    *obs.Gauge
}

// noteShard publishes the currently owned shard size.
func (e *Executor) noteShard() {
	if e.met != nil {
		e.met.shard.Set(float64(len(e.data)))
	}
}

// Instrument attaches the executor to a registry: its kernel pool reports
// as sbgt_engine_pool_*, served requests as
// sbgt_cluster_executor_requests_total{op}, and the owned shard size as
// sbgt_cluster_executor_shard_states. id, when non-empty, becomes an
// executor label so co-resident executors (StartLocal) stay
// distinguishable; pool metrics are unlabeled and aggregate across
// executors sharing a registry. A nil registry is a no-op.
func (e *Executor) Instrument(reg *obs.Registry, id string) {
	if reg == nil {
		return
	}
	e.pool.Instrument(reg)
	var labels []obs.Label
	if id != "" {
		labels = []obs.Label{obs.L("executor", id)}
	}
	m := &executorMetrics{
		requests: make(map[Op]*obs.Counter, len(allOps)),
		shard:    reg.Gauge("sbgt_cluster_executor_shard_states", labels...),
	}
	for _, op := range allOps {
		m.requests[op] = reg.Counter("sbgt_cluster_executor_requests_total",
			append([]obs.Label{obs.L("op", op.String())}, labels...)...)
	}
	e.met = m
}
