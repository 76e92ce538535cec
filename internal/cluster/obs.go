package cluster

import (
	"net"
	"strconv"

	"repro/internal/obs"
)

// clusterMetrics is the driver-side reporting surface, shared by every
// executor connection of one model (and transferred with them on
// Condition). A nil *clusterMetrics disables all reporting.
//
// Per-executor series are labelled by the executor's stable fan-out rank
// ("0", "1", …) rather than its host:port: ranks bound the label
// cardinality at the fan-out width and stay comparable across redials,
// where raw addresses would mint a fresh series per ephemeral port.
type clusterMetrics struct {
	rpc       [][numOps]*obs.Histogram // round-trip latency by executor rank and op
	bytesSent *obs.Counter
	bytesRecv *obs.Counter
}

func newClusterMetrics(reg *obs.Registry, executors int) *clusterMetrics {
	if reg == nil {
		return nil
	}
	m := &clusterMetrics{
		rpc:       make([][numOps]*obs.Histogram, executors),
		bytesSent: reg.Counter("sbgt_cluster_bytes_sent_total"),
		bytesRecv: reg.Counter("sbgt_cluster_bytes_recv_total"),
	}
	for rank := 0; rank < executors; rank++ {
		idx := obs.L("executor", strconv.Itoa(rank))
		for op := Op(0); op < numOps; op++ {
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

// countingConn counts bytes moved over one executor connection. The
// deadline and close methods pass through the embedded net.Conn.
type countingConn struct {
	net.Conn
	sent, recv *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(uint64(n))
	return n, err
}

// Instrument attaches the executor's kernel pool to a registry; it
// reports as sbgt_engine_pool_*, unlabeled, so co-resident executors
// (StartLocalObs) aggregate. A nil registry is a no-op.
func (e *Executor) Instrument(reg *obs.Registry) {
	e.pool.Instrument(reg)
}
