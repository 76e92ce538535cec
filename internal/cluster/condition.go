package cluster

import (
	"fmt"

	"repro/internal/lattice"
)

// Condition collapses subject onto a known status and returns the reduced
// distributed model over the remaining N−1 subjects, the cluster analogue
// of lattice.ConditionInPlace. The posterior stays on the executors: one
// round sums the event's mass, a second has every executor collapse its
// own shard in place (lattice.CollapseBit, scaled by 1/mass so the result
// is normalized). A shard's survivors are a contiguous range of the halved
// lattice, which the driver computes for itself; states move only when
// those ranges are no longer the even split (rebalance).
//
// On success, ownership of the executor connections transfers to the
// returned model and the receiver must not be used again (its Close
// becomes a no-op). It returns (nil, nil) — receiver unchanged and still
// usable — when the conditioning event has zero posterior mass, the
// subject index is invalid, or only one subject remains. An error once the
// collapse is under way leaves the cluster ambiguous, so both models'
// shared connections are torn down before it is returned.
func (m *Model) Condition(subject int, positive bool) (*Model, error) {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil, nil
	}
	bit := uint64(1) << uint(subject)
	var base uint64
	if positive {
		base = bit
	}
	// Preflight: the collapse destroys the shards it runs on, so a zero-mass
	// event is rejected first, with them intact.
	mass, err := m.fanoutSum(func(*conn) Request {
		return Request{Op: OpSumWhere, Pool: bit, Base: base}
	})
	if err != nil {
		return nil, err
	}
	factor := 1 / mass // of stored mass: the collapse leaves no scale pending
	if !lattice.ValidFactor(factor) {
		return nil, nil
	}

	risks := make([]float64, 0, m.n-1)
	risks = append(risks, m.risks[:subject]...)
	risks = append(risks, m.risks[subject+1:]...)
	out := &Model{conns: m.conns, n: m.n - 1, risks: risks, resp: m.resp, tests: m.tests, scale: 1, met: m.met, tracer: m.tracer, parent: m.parent, flight: m.flight}
	m.conns = nil // ownership transfers; the receiver's Close is now a no-op

	_, err = out.fanout(func(*conn) Request {
		return Request{Op: OpCollapse, Pool: bit, Base: base, Factor: factor}
	})
	if err == nil {
		for _, c := range out.conns {
			c.lo, c.hi = lattice.KeptBelow(c.lo, bit, base), lattice.KeptBelow(c.hi, bit, base)
		}
		err = out.rebalance()
	}
	if err != nil {
		out.Close()
		return nil, err
	}
	return out, nil
}

// rebalance restores the even split after a collapse, which breaks it when
// the subject was one of the top ⌈log2 K⌉ lattice bits or K is not a power
// of two. Only the states whose owner changes move: every executor first
// returns what it holds outside its new range (all reads finish before any
// shard is re-based), and since executors and ranges are both in state
// order, those states laid end to end split into each executor's gain, in
// rank order. OpLoadShard splices the gain around what the executor keeps.
// Executors past the state count end with valid empty shards, so every
// connection stays in the fan-out.
func (m *Model) rebalance() error {
	total, k := uint64(1)<<uint(m.n), len(m.conns)
	off := make([]uint64, k+1) // off[i]: states the executors below i gain
	for i, c := range m.conns {
		lo, hi := shardRange(total, k, i)
		keep := max(lo, c.lo) // the executor keeps [keep, max(keep, min(hi, c.hi)))
		off[i+1] = off[i] + (hi - lo) - (max(keep, min(hi, c.hi)) - keep)
		c.lo, c.hi = lo, hi
	}
	if off[k] == 0 {
		return nil // still the even split
	}
	leaving, err := m.fanout(func(c *conn) Request {
		return Request{Op: OpFetch, Lo: c.lo, Hi: c.hi}
	})
	if err != nil {
		return err
	}
	var moved []float64
	for _, r := range leaving {
		moved = append(moved, r.Vec...)
	}
	if uint64(len(moved)) != off[k] {
		return fmt.Errorf("cluster: rebalance: executors gave up %d states, their new shards lack %d", len(moved), off[k])
	}
	_, err = m.fanout(func(c *conn) Request {
		return Request{Op: OpLoadShard, Lo: c.lo, Hi: c.hi, Data: moved[off[c.rank]:off[c.rank+1]]}
	})
	return err
}
