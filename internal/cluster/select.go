package cluster

import (
	"fmt"

	"repro/internal/lattice"
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
	return lattice.SuffixCleanMasses(hist, k), nil
}

// BranchMarginals is lattice.Model.BranchMarginals, distributed: one
// OpMarginals round carrying the branch pools and tables, whose per-shard
// rows the driver merges in rank order times the carried scale. pools and
// pos must have passed lattice.CheckBranches; every executor checks them
// again.
func (m *Model) BranchMarginals(pools []uint64, pos [][]float64) ([]float64, error) {
	return m.fanoutVec((m.n+1)<<uint(len(pools)), func(*conn) Request {
		return Request{Op: OpMarginals, BranchPools: pools, BranchTables: pos}
	})
}

// BranchPrefixNegMasses is lattice.Model.BranchPrefixNegMasses,
// distributed: one OpPrefix round carrying the branch pools and tables;
// the merged per-branch histograms are suffix-summed into clean masses.
func (m *Model) BranchPrefixNegMasses(pools []uint64, pos [][]float64, order []int) ([]float64, error) {
	hist, err := m.fanoutVec((len(order)+1)<<uint(len(pools)), func(*conn) Request {
		return Request{Op: OpPrefix, Order: order, BranchPools: pools, BranchTables: pos}
	})
	if err != nil {
		return nil, err
	}
	return lattice.SuffixCleanMasses(hist, len(order)), nil
}
