package cluster

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/prob"
)

// PrefixNegMasses returns the clean masses of every nested prefix of the
// subject ordering, distributed: each executor histograms its shard by
// minimum order-rank, the driver merges in rank order (fanoutVec brings in
// the carried scale) and suffix-sums. At the prior the answer is the closed
// form lattice.PriorPrefixNegMasses, after the executors' check: no round.
//
// With N, Marginals and NegMasses this is the read surface
// halving.Posterior asks of a backend; selection reaches it through
// posterior.Cluster like every other consumer, and a transport failure
// surfaces as the returned error.
func (m *Model) PrefixNegMasses(order []int) ([]float64, error) {
	k := len(order)
	if k == 0 {
		return nil, nil
	}
	if m.prior {
		if _, err := lattice.NewRankTable(order, m.n); err != nil {
			return nil, fmt.Errorf("cluster: %v", err)
		}
		return lattice.PriorPrefixNegMasses(m.risks, order), nil
	}
	hist, err := m.fanoutVec(k+1, func(*conn) Request {
		return Request{Op: OpPrefix, Order: order}
	})
	if err != nil {
		return nil, err
	}
	neg := make([]float64, k)
	var acc prob.Accumulator
	for i := k - 1; i >= 0; i-- {
		acc.Add(hist[i+1])
		neg[i] = acc.Value()
	}
	return neg, nil
}
