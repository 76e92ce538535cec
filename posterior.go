package sbgt

import (
	"repro/internal/core"
	"repro/internal/posterior"
)

// Posterior is the backend-generic posterior interface: the dense
// lattice, the truncated sparse support, and the distributed cluster
// driver all implement it, and sessions, studies, and checkpoints are
// written against it. See posterior.Model for the method contracts.
type Posterior = posterior.Model

// Backend describes which posterior representation to open and with
// what knobs; the zero value is the dense in-process backend. See
// posterior.Spec.
type Backend = posterior.Spec

// BackendKind names a posterior backend.
type BackendKind = posterior.Kind

// The three posterior backends.
const (
	BackendDense   = posterior.KindDense
	BackendSparse  = posterior.KindSparse
	BackendCluster = posterior.KindCluster
)

// ParseBackend maps a flag value ("dense", "sparse", "cluster", or ""
// for dense) to a backend kind.
func ParseBackend(s string) (BackendKind, error) { return posterior.ParseKind(s) }

// OpenBackend builds the prior posterior for the spec on this engine's
// worker pool (the pool is used by the dense backend only). Close the
// returned model when done — the cluster backend holds connections and
// possibly local executors, and a closed dense model's storage is what
// the engine's next dense open of the same size fills — or hand it to
// NewSessionOn, which takes ownership.
func (e *Engine) OpenBackend(spec Backend, risks []float64, resp Response) (Posterior, error) {
	return spec.Open(e.pool, risks, resp)
}

// NewSessionOn builds a surveillance session that drives the given
// posterior — the backend-generic form of NewSession. The session takes
// ownership of the model and closes it when the campaign completes.
func (e *Engine) NewSessionOn(model Posterior, cfg Config) (*Session, error) {
	return core.NewSessionOn(model, cfg)
}
