package main

import (
	"fmt"
	"runtime"
	"time"

	sbgt "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// maxStages stops a campaign that will not converge. The propose/absorb
// loop has no stage cap of its own (only Session.Run enforces
// Config.MaxStages); the longest campaign in the fixed population takes
// 32 stages.
const maxStages = 200

// campaign is the in-process workload: cohorts classified one at a time
// through Engine.OpenBackend, Engine.NewSessionOn and the session's
// propose/absorb loop. dense_campaign and cluster_campaign are the same
// loop on two backends.
type campaign struct {
	n, count    int
	clusterExec int // executors to start; 0 selects the dense backend
	// triadCap bounds one array of the traced dense run's bandwidth probe.
	triadCap int64
	// collect forces a collection between cohorts, outside every turn. At
	// N=22 a cohort's posterior is one 32 MB allocation, and whether the
	// collector frees the last one before the next is made is a matter of
	// timing: left alone, peak_rss_mb read anything from 93 to 139 MB for
	// the same work. With it, peak_rss_mb is one cohort's footprint. At
	// N=18 the vectors are 2 MB, RSS is steady without it, and twenty
	// forced collections a round would cost 7 % of the round.
	collect bool

	e       *env
	eng     *sbgt.Engine
	backend sbgt.Backend
	stop    func()
	cohorts []cohortInput // in population order
	order   []int         // the order a round runs them in
}

// dense is the in-process backend with the hooks cmd/sbgt gives it.
func (c *campaign) dense() sbgt.Backend { return sbgt.Backend{Obs: c.e.reg, Tracer: c.e.tracer} }

func (c *campaign) setup(e *env) error {
	c.e = e
	var err error
	if c.cohorts, c.order, err = makeCohorts(e.seed, c.n, c.count); err != nil {
		return err
	}
	c.eng = sbgt.NewEngine(e.workers)
	c.eng.Instrument(e.reg)
	c.backend = c.dense()
	if c.clusterExec > 0 {
		// The executors are started once and every cohort dials them, as a
		// deployment with standing executors would. One worker each: two
		// executors already fill the two cores.
		addrs, stop, err := cluster.StartLocalObs(c.clusterExec, 1, e.reg)
		if err != nil {
			c.eng.Close()
			return err
		}
		c.stop = stop
		c.backend = sbgt.Backend{Kind: sbgt.BackendCluster, Addrs: addrs, DialTimeout: 10 * time.Second, Obs: e.reg, Tracer: e.tracer}
	}
	if err := c.probe(); err != nil {
		c.close() //lint:allow errcheck the probe's error is the one to report
		return err
	}
	return nil
}

// probe drives the population's lightest cohort to a checked result
// before any round is timed. On the cluster backend it drives the
// heaviest too, replays both on the dense backend and requires the
// identical pool sequence: the two backends are separate kernel
// implementations, and a divergence would make the workload's counts a
// property of the backend rather than of the inputs.
func (c *campaign) probe() error {
	probes := []int{0}
	if c.clusterExec > 0 {
		probes = append(probes, len(c.cohorts)-1)
	}
	for _, i := range probes {
		var rr roundResult
		pools := c.drive(i, c.backend, &rr, nil)
		if rr.Failed > 0 {
			return fmt.Errorf("probe cohort %d: %s", i, rr.failure)
		}
		if c.clusterExec == 0 {
			continue
		}
		var dense roundResult
		want := c.drive(i, c.dense(), &dense, nil)
		if dense.Failed > 0 {
			return fmt.Errorf("probe cohort %d on dense: %s", i, dense.failure)
		}
		if len(pools) != len(want) {
			return fmt.Errorf("probe cohort %d: cluster proposed %d pools, dense %d", i, len(pools), len(want))
		}
		for j := range pools {
			if pools[j] != want[j] {
				return fmt.Errorf("probe cohort %d: pool %d is %v on cluster, %v on dense", i, j, pools[j], want[j])
			}
		}
	}
	return nil
}

func (c *campaign) close() error {
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
	if c.eng != nil {
		c.eng.Close()
		c.eng = nil
	}
	return nil
}

func (c *campaign) round(rec *recorder) *roundResult {
	rr := &roundResult{}
	t := newTracer(rec)
	for _, i := range c.order {
		c.drive(i, c.backend, rr, t)
		if c.collect {
			runtime.GC()
		}
	}
	return rr
}

// drive classifies cohort i on the given backend and adds what it
// measured to rr. A turn is one wait the lab sees: the first runs from
// handing over the cohort to holding its first pools (backend open,
// prior build, session, first selection); each later one runs from
// handing over a stage's results to holding the next pools, or to
// learning the campaign is done. The simulated lab runs between turns.
// An error from the system, or a result that fails its checks, counts
// as one failed operation and abandons the cohort. The pools proposed,
// in order, are returned for the backend-equivalence probe.
func (c *campaign) drive(i int, backend sbgt.Backend, rr *roundResult, t *tracer) []sbgt.SubjectSet {
	in := &c.cohorts[i]
	lab := in.oracle()
	var proposed []sbgt.SubjectSet
	turn := 0
	fail := func(sess *sbgt.Session, err error) []sbgt.SubjectSet {
		rr.fail(fmt.Errorf("cohort %d turn %d: %w", i, turn, err))
		if sess != nil {
			sess.Close() //lint:allow errcheck abandoning a failed cohort; the failure is already counted
		}
		return proposed
	}

	t.at(i, turn)
	t0 := time.Now()
	endTurn := t.begin("turn")
	sess, pools, err := c.open(in, backend, t)
	endTurn()
	rr.turns = append(rr.turns, float64(time.Since(t0))/1e6)
	rr.Turns++
	if err != nil {
		return fail(sess, err)
	}

	for pools != nil {
		if pools[0].Stage > maxStages {
			return fail(sess, fmt.Errorf("no convergence after %d stages", maxStages))
		}
		l0 := time.Now()
		results := make([]core.TestResult, len(pools))
		for j, p := range pools {
			proposed = append(proposed, p.Pool)
			results[j] = core.TestResult{Stage: p.Stage, Index: p.Index, Outcome: lab.Test(p.Pool)}
		}
		rr.oracle += time.Since(l0)

		turn++
		t.at(i, turn)
		t0 = time.Now()
		endTurn = t.begin("turn")
		endAbsorb := t.begin("core.absorb")
		err = sess.AbsorbResults(results)
		endAbsorb()
		if err == nil {
			endPropose := t.begin("core.propose")
			pools, err = sess.ProposePools()
			endPropose()
		}
		endTurn()
		rr.turns = append(rr.turns, float64(time.Since(t0))/1e6)
		rr.Turns++
		if err != nil {
			return fail(sess, err)
		}
	}

	res := sess.Result()
	switch {
	case sess.Remaining() != 0:
		return fail(sess, fmt.Errorf("%d subjects left unclassified", sess.Remaining()))
	case res.Tests != lab.Tests():
		return fail(sess, fmt.Errorf("session counted %d tests, the lab ran %d", res.Tests, lab.Tests()))
	}
	cf := sbgt.EvaluateResult(res, in.truth)
	rr.Cohorts++
	rr.Subjects += len(in.risks)
	rr.Tests += res.Tests
	rr.Stages += res.Stages
	rr.Correct += cf.TP + cf.TN
	if err := sess.Close(); err != nil {
		return fail(nil, err)
	}
	return proposed
}

// open is the first turn's work: open the backend (the prior build, and
// on the cluster backend the dial), wrap it for tracing, build the
// session and select the first pools.
func (c *campaign) open(in *cohortInput, backend sbgt.Backend, t *tracer) (*sbgt.Session, []core.Pool, error) {
	endOpen := t.begin(openSpan(backend))
	model, err := c.eng.OpenBackend(backend, in.risks, assay())
	endOpen()
	if err != nil {
		return nil, nil, err
	}
	endNew := t.begin("core.new_session")
	sess, err := c.eng.NewSessionOn(traceModel(model, t), sbgt.Config{Obs: c.e.reg, Tracer: c.e.tracer})
	endNew()
	if err != nil {
		model.Close() //lint:allow errcheck the constructor's error is the one to report
		return nil, nil, err
	}
	endPropose := t.begin("core.propose")
	pools, err := sess.ProposePools()
	endPropose()
	return sess, pools, err
}

func openSpan(b sbgt.Backend) string {
	if b.Kind == sbgt.BackendCluster {
		return "cluster.dial"
	}
	return "lattice.prior_build"
}
