// Package sbgt is a scalable implementation of Bayesian lattice-model
// group testing for disease surveillance — a from-scratch Go reproduction
// of "SBGT: Scaling Bayesian-based Group Testing for Disease Surveillance"
// (Chen, Qi, Lu, Tatsuoka; IEEE IPDPS 2023).
//
// # What it does
//
// Given a cohort of up to 30 subjects with individual prior infection
// risks and a pooled-assay response model (including dilution effects),
// sbgt maintains the exact Bayesian posterior over all 2^N infection
// states, selects pooled tests with the Bayesian Halving Algorithm (or
// k-pool look-ahead rules), and classifies subjects as their posterior
// marginals cross decision thresholds. All lattice kernels run
// data-parallel on a partitioned vector engine; an optional TCP
// driver/executor runtime distributes the lattice across processes.
// Beyond the dense 30-subject bound, the truncated sparse backend
// (OpenBackend with BackendSparse) carries cohorts to 64 subjects with an
// explicit error bound, and RunCampaign composes cohort-sized sessions
// into arbitrarily large population screens. Every backend is reached the
// same way: OpenBackend returns a Posterior, NewSessionOn drives it.
//
// # Quick start
//
//	eng := sbgt.NewEngine(0) // GOMAXPROCS workers
//	defer eng.Close()
//	sess, err := eng.NewSession(sbgt.Config{
//		Risks:    sbgt.UniformRisks(12, 0.05),
//		Response: sbgt.BinaryTest(0.95, 0.99),
//	})
//	if err != nil { ... }
//	result, err := sess.Run(func(pool sbgt.SubjectSet) sbgt.Outcome {
//		return runLabTest(pool) // your LIMS integration
//	})
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package sbgt
