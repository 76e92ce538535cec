package posterior

import (
	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/dilution"
	"repro/internal/obs"
)

// Cluster adapts the distributed driver to the Model interface. The
// wrapper optionally owns a stop function (from cluster.StartLocal) that
// tears down in-process executors when the model is Closed; ownership of
// both the connections and the stop function follows Condition, matching
// the driver's own transfer semantics.
type Cluster struct {
	m    *cluster.Model
	stop func()
}

// FromCluster wraps an existing driver-side model. stop, if non-nil, is
// invoked exactly once when the model (or a conditioned descendant) is
// closed — pass the stop function of cluster.StartLocal, or nil for
// external executors.
func FromCluster(m *cluster.Model, stop func()) *Cluster {
	return &Cluster{m: m, stop: stop}
}

// SetTraceContext forwards a propagated trace context to the driver, so
// subsequent RPCs emit spans under it — the trace-carrier capability the
// session probes for (see cluster.Model.SetTraceContext).
func (c *Cluster) SetTraceContext(tc obs.TraceContext) { c.m.SetTraceContext(tc) }

// N returns the cohort size.
func (c *Cluster) N() int { return c.m.N() }

// Kind returns KindCluster.
func (c *Cluster) Kind() Kind { return KindCluster }

// Risks returns the prior risk vector (a copy).
func (c *Cluster) Risks() []float64 { return c.m.Risks() }

// Response returns the assay model.
func (c *Cluster) Response() dilution.Response { return c.m.Response() }

// Tests returns how many outcomes have been absorbed.
func (c *Cluster) Tests() int { return c.m.Tests() }

// Update folds one pooled-test outcome into the distributed posterior.
func (c *Cluster) Update(pool bitvec.Mask, y dilution.Outcome) error {
	return c.m.Update(pool, y)
}

// Marginals returns each subject's posterior infection probability.
func (c *Cluster) Marginals() ([]float64, error) { return c.m.Marginals() }

// NegMasses scores every candidate pool in one distributed sweep.
func (c *Cluster) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	return c.m.NegMasses(cands)
}

// PrefixNegMasses returns the nested-prefix clean masses, distributed.
func (c *Cluster) PrefixNegMasses(order []int) ([]float64, error) {
	return c.m.PrefixNegMasses(order)
}

// Entropy returns the posterior entropy in bits.
func (c *Cluster) Entropy() (float64, error) { return c.m.Entropy() }

// Summary returns the marginals and the entropy: no round at the prior.
func (c *Cluster) Summary() (*Summary, error) { return summarize(c) }

// Condition collapses subject onto a known status; see Model.Condition.
// The executor connections (and the local-executor stop function, if
// any) transfer to the returned model. A transport error mid-condition
// tears the whole cluster down before returning.
func (c *Cluster) Condition(subject int, positive bool) (Model, error) {
	out, err := c.m.Condition(subject, positive)
	if err != nil {
		// The driver already closed the connections; release the local
		// executors too — neither model is usable.
		c.runStop()
		return nil, err
	}
	if out == nil {
		return nil, nil
	}
	next := &Cluster{m: out, stop: c.stop}
	c.stop = nil
	return next, nil
}

// Snapshot gathers the full posterior to the driver. The snapshot is
// tagged KindCluster but carries a dense payload: it restores as a dense
// model (see FromSnapshot).
func (c *Cluster) Snapshot() (*Snapshot, error) {
	post, err := c.m.Fetch()
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Kind:     KindCluster,
		Risks:    c.m.Risks(),
		Response: c.m.Response(),
		Tests:    c.m.Tests(),
		Dense:    post,
	}, nil
}

// Close tears down the executor connections and, if this wrapper owns
// locally started executors, stops them. Idempotent.
func (c *Cluster) Close() error {
	c.m.Close()
	c.runStop()
	return nil
}

func (c *Cluster) runStop() {
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
}
