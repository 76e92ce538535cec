package posterior

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Spec describes which backend to open and with what knobs. The zero
// value selects the dense backend with engine defaults, so existing
// callers that never mention a backend keep their behavior.
type Spec struct {
	// Kind selects the backend; "" means dense.
	Kind Kind

	// Eps and MaxStates configure the sparse truncation (see
	// sparse.Config). Sparse only.
	Eps       float64
	MaxStates int

	// Addrs lists executor addresses to dial. Cluster only. When empty
	// and LocalExecutors > 0, that many in-process executors are started
	// on loopback ports and owned by the returned model (Close stops
	// them).
	Addrs          []string
	LocalExecutors int
	// ExecWorkers is each local executor's worker-pool size (<= 0 selects
	// GOMAXPROCS).
	ExecWorkers int
	// DialTimeout bounds each executor's dial + prior build (<= 0 means
	// no deadline).
	DialTimeout time.Duration
	// DialAttempts is how many times each executor is dialed before the
	// fan-out fails (<= 0 selects 1). Cluster only.
	DialAttempts int

	// Obs, when non-nil, instruments the opened model with
	// posterior.Instrument and wires backend-internal metrics: cluster RPC
	// latency, bytes on the wire, dial retries, and (for local executors)
	// executor pool and shard series.
	Obs *obs.Registry

	// Tracer, when non-nil, records driver-side RPC spans (and the
	// executor spans shipped back in response trailers) for the cluster
	// backend. The other backends run in-process and are traced by the
	// session's own spans.
	Tracer *obs.Tracer
}

// Open builds the prior posterior for the spec. pool is used by the
// dense backend only (sparse is single-threaded, cluster executors own
// their pools); it may be nil for the other kinds. A dense open takes the
// pool's spare storage when it has the lattice's size (lattice.New); any
// other open lets it go, so a pool never keeps a spare no open is about to
// use.
func (s Spec) Open(pool *engine.Pool, risks []float64, resp dilution.Response) (Model, error) {
	kind, err := ParseKind(string(s.Kind))
	if err != nil {
		return nil, err
	}
	if kind != KindDense {
		pool.DropSpare()
	}
	var m Model
	switch kind {
	case KindDense:
		var lm *lattice.Model
		if lm, err = lattice.New(pool, lattice.Config{Risks: risks, Response: resp}); err == nil {
			m = FromLattice(lm)
		}
	case KindSparse:
		var sm *sparse.Model
		if sm, err = sparse.New(sparse.Config{Risks: risks, Response: resp, Eps: s.Eps, MaxStates: s.MaxStates}); err == nil {
			m = FromSparse(sm)
		}
	case KindCluster:
		addrs := s.Addrs
		var stop func()
		if len(addrs) == 0 {
			if s.LocalExecutors <= 0 {
				return nil, fmt.Errorf("posterior: cluster backend needs executor addresses or LocalExecutors > 0")
			}
			addrs, stop, err = cluster.StartLocalObs(s.LocalExecutors, s.ExecWorkers, s.Obs)
			if err != nil {
				return nil, err
			}
		}
		var cm *cluster.Model
		cm, err = cluster.DialWith(addrs, risks, resp, cluster.DialOptions{
			Timeout:  s.DialTimeout,
			Attempts: s.DialAttempts,
			Obs:      s.Obs,
			Tracer:   s.Tracer,
		})
		if err != nil {
			if stop != nil {
				stop()
			}
			return nil, err
		}
		m = FromCluster(cm, stop)
	default:
		return nil, fmt.Errorf("posterior: unknown backend %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return Instrument(m, s.Obs), nil
}
