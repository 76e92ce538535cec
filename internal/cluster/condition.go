package cluster

import (
	"fmt"

	"repro/internal/lattice"
)

// Condition collapses subject onto a known status and returns the reduced
// distributed model over the remaining N−1 subjects, the cluster analogue
// of lattice.ConditionInPlace and, like it, one round: every executor
// collapses its own shard in place (lattice.CollapseBit, unscaled) and
// answers its survivors' total and marginal partials from one pass, which
// the driver merges into the carried scale and the held marginals, as
// after an Update. A shard's survivors are a contiguous range of the
// halved lattice, which the driver computes for itself; each request also
// carries the executor's range in the even split of the halved lattice,
// and each response the survivors outside it, so when the split breaks
// (rebalance) one more round moves them. An event that may have zero mass
// (lattice.EventMayBeEmpty) is summed first, in an OpSumWhere round.
//
// On success, ownership of the executor connections transfers to the
// returned model, and the receiver answers every later call with an error
// (its Close becomes a no-op). It returns (nil, nil) — receiver unchanged
// and still usable — when the conditioning event has zero posterior mass,
// the subject index is invalid, or only one subject remains. An error once
// the collapse is under way leaves the cluster ambiguous, so both models'
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
	if lattice.EventMayBeEmpty(m.marg, subject, positive) {
		mass, err := m.fanoutSum(func(*conn) Request {
			return Request{Op: OpSumWhere, Pool: bit, Base: base}
		})
		if err != nil {
			return nil, err
		}
		if !lattice.ValidFactor(1 / mass) {
			return nil, nil
		}
	}

	risks := make([]float64, 0, m.n-1)
	risks = append(risks, m.risks[:subject]...)
	risks = append(risks, m.risks[subject+1:]...)
	out := &Model{conns: m.conns, n: m.n - 1, risks: risks, resp: m.resp, tests: m.tests, met: m.met, tracer: m.tracer, parent: m.parent}
	m.conns, m.prior, m.marg, m.spent = nil, false, nil, errConditioned

	// off[i]: the states the executors below i gain from the others.
	total, k := uint64(1)<<uint(out.n), len(out.conns)
	off := make([]uint64, k+1)
	for i, c := range out.conns {
		kept, end := lattice.KeptBelow(c.lo, bit, base), lattice.KeptBelow(c.hi, bit, base)
		c.lo, c.hi = shardRange(total, k, i)
		keep := max(c.lo, kept) // the executor keeps [keep, max(keep, min(c.hi, end)))
		off[i+1] = off[i] + (c.hi - c.lo) - (max(keep, min(c.hi, end)) - keep)
	}
	resps, err := out.fanout(func(c *conn) Request {
		return Request{Op: OpCollapse, Pool: bit, Base: base, Lo: c.lo, Hi: c.hi}
	})
	if err == nil && off[k] > 0 {
		err = out.rebalance(resps, off)
	}
	if err == nil {
		out.scale = 1 / mergeSum(resps)
		out.marg, err = out.mergeVec(resps, out.n)
	}
	if err != nil {
		out.Close()
		return nil, err
	}
	return out, nil
}

// rebalance restores the even split after a collapse broke it, which
// happens when the subject was one of the top ⌈log2 K⌉ lattice bits or K
// is not a power of two. Only the states whose owner changes move: each
// collapse response carries what its executor holds outside its new range,
// and since executors and ranges are both in state order, those states
// laid end to end split into each executor's gain, off[i] to off[i+1], in
// rank order. OpLoadShard splices the gain around what the executor keeps;
// it is posted, so its ack is read by the model's next round or Close, and
// a refused one spends the model there. Executors past the state count end
// with valid empty shards, so every connection stays in the fan-out.
func (m *Model) rebalance(collapsed []Response, off []uint64) error {
	var moved []float64
	for _, r := range collapsed {
		moved = append(moved, r.Data...)
	}
	if uint64(len(moved)) != off[len(off)-1] {
		return fmt.Errorf("cluster: rebalance: executors gave up %d states, their new shards lack %d", len(moved), off[len(off)-1])
	}
	return m.post(func(c *conn) Request {
		return Request{Op: OpLoadShard, Lo: c.lo, Hi: c.hi, Data: moved[off[c.rank]:off[c.rank+1]]}
	})
}
