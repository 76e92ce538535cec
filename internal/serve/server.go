package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// maxBodyBytes bounds a request body: the largest legitimate payload is
// a cohort's worth of risks or one stage of results, both tiny.
const maxBodyBytes = 1 << 20

// latencyBounds are the request-latency histogram buckets (seconds),
// tuned for loopback-to-LAN service times.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// DefaultTenantLabels bounds how many distinct tenant label values the
// per-tenant RED metrics may create; tenants past the bound aggregate
// under the "__other__" label, so a tenant-ID churn (or an abusive
// client minting tenants) can never blow up series cardinality.
const DefaultTenantLabels = 32

// TenantOverflow is the label value requests from beyond-the-bound
// tenants aggregate under.
const TenantOverflow = "__other__"

// ServerConfig wires a Server.
type ServerConfig struct {
	Manager *Manager
	// MaxInflight bounds concurrently-served API requests; excess load is
	// shed with 429 + Retry-After instead of queueing without bound. Zero
	// means 512.
	MaxInflight int
	// MaxTenantLabels bounds the distinct tenant values in per-tenant RED
	// series (zero means DefaultTenantLabels); overflow aggregates under
	// TenantOverflow.
	MaxTenantLabels int
	Obs             *obs.Registry
	// Tracer records one http span per request, with the manager's and
	// the session's work for it as children, and a zero-length shed span
	// per shed request.
	Tracer *obs.Tracer
	Log    *slog.Logger
	// Flight, when non-nil, serves its anomaly dumps on /debug/flight.
	Flight *obs.FlightRecorder
	// SLO, when non-nil, joins the /readyz chain: a breached Degrade
	// objective turns readiness 503 so the load balancer backs off while
	// the error budget burns.
	SLO *obs.SLO
}

// Server is the sbgt-serve HTTP API:
//
//	POST   /v1/cohorts              create a cohort
//	GET    /v1/cohorts/{id}/pools   next lab work (propose; idempotent)
//	POST   /v1/cohorts/{id}/results submit one stage of outcomes
//	GET    /v1/cohorts/{id}         status + classifications
//	DELETE /v1/cohorts/{id}         close and forget a cohort
//	POST   /v1/drain                checkpoint everything, stop admitting
//
// plus the observability endpoints from obs.NewMux (/metrics,
// /metrics.json, /healthz, /readyz, /spans, /debug/flight,
// /debug/pprof/*). Readiness
// follows the manager: /readyz turns 503 the moment a drain starts.
type Server struct {
	mgr      *Manager
	mux      *http.ServeMux
	log      *slog.Logger
	tracer   *obs.Tracer
	inflight chan struct{}

	mRequests *obs.Counter
	mShed     *obs.Counter
	mLatency  *obs.Histogram

	// Per-tenant RED series, bounded at maxTenants distinct labels with
	// overflow under TenantOverflow. reg is kept so new tenants register
	// their handles lazily on first request.
	reg        *obs.Registry
	maxTenants int
	tenantMu   sync.Mutex
	tenants    map[string]*tenantMetrics
}

// tenantMetrics is one tenant's RED handle set.
type tenantMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// tenant returns the metrics handles for one tenant label, registering
// them on first use and aggregating under TenantOverflow once the bound
// is hit. Returns nil when no registry is wired.
func (s *Server) tenant(name string) *tenantMetrics {
	if s.reg == nil {
		return nil
	}
	if name == "" {
		name = "default"
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if tm, ok := s.tenants[name]; ok {
		return tm
	}
	if len(s.tenants) >= s.maxTenants {
		name = TenantOverflow
		if tm, ok := s.tenants[name]; ok {
			return tm
		}
	}
	l := obs.L("tenant", name)
	tm := &tenantMetrics{
		requests: s.reg.Counter("sbgt_serve_tenant_requests_total", l),
		errors:   s.reg.Counter("sbgt_serve_tenant_errors_total", l),
		latency:  s.reg.Histogram("sbgt_serve_tenant_request_seconds", latencyBounds, l),
	}
	s.tenants[name] = tm
	return tm
}

// NewServer builds the API handler around a manager.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 512
	}
	if cfg.MaxTenantLabels <= 0 {
		cfg.MaxTenantLabels = DefaultTenantLabels
	}
	ready := []func() error{cfg.Manager.Ready}
	if cfg.SLO != nil {
		ready = append(ready, cfg.SLO.Ready)
	}
	s := &Server{
		mgr: cfg.Manager,
		mux: obs.NewMux(obs.MuxConfig{
			Reg: cfg.Obs, Tracer: cfg.Tracer, Flight: cfg.Flight, Ready: ready,
		}),
		log:        obs.OrNop(cfg.Log),
		tracer:     cfg.Tracer,
		inflight:   make(chan struct{}, cfg.MaxInflight),
		reg:        cfg.Obs,
		maxTenants: cfg.MaxTenantLabels,
		tenants:    make(map[string]*tenantMetrics),
	}
	if reg := cfg.Obs; reg != nil {
		s.mRequests = reg.Counter("sbgt_serve_requests_total")
		s.mShed = reg.Counter("sbgt_serve_requests_shed_total")
		s.mLatency = reg.Histogram("sbgt_serve_request_seconds", latencyBounds)
	}
	s.mux.HandleFunc("POST /v1/cohorts", s.guard(s.handleCreate))
	s.mux.HandleFunc("GET /v1/cohorts/{id}/pools", s.guard(s.handlePools))
	s.mux.HandleFunc("POST /v1/cohorts/{id}/results", s.guard(s.handleResults))
	s.mux.HandleFunc("GET /v1/cohorts/{id}", s.guard(s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/cohorts/{id}", s.guard(s.handleDelete))
	s.mux.HandleFunc("POST /v1/drain", s.guard(s.handleDrain))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// reqInfo threads per-request identity between guard and handler: the
// request's http span, which the handler hands the manager as the parent
// of the work it causes, and which tenant and cohort the request touched
// (set by the handler once it knows).
type reqInfo struct {
	span   *obs.Span
	tenant string
	cohort string
}

// bind resolves the cohort's tenant and stamps both identities — the
// one-liner every {id}-routed handler opens with.
func (ri *reqInfo) bind(s *Server, cohortID string) {
	ri.cohort = cohortID
	ri.tenant = s.mgr.Tenant(cohortID)
}

// statusRecorder captures the response status for metrics and the http span.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// guard wraps an API handler with backpressure, metrics (aggregate and
// per-tenant RED) and a per-request http span: the manager's and the
// session's work for the request hangs under it, and its tenant, cohort
// and status attrs make it the slow-request → trace link in every dump.
func (s *Server) guard(h func(http.ResponseWriter, *http.Request, *reqInfo) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			inc(s.mShed)
			s.tracer.Start("shed", obs.A("method", req.Method), obs.A("path", req.URL.Path)).End()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, errors.New("serve: too many in-flight requests"))
			return
		}
		inc(s.mRequests)
		// method, path, tenant, cohort, status and (on failure) err.
		attrs := make([]obs.Attr, 2, 6)
		attrs[0], attrs[1] = obs.A("method", req.Method), obs.A("path", req.URL.Path)
		ri := &reqInfo{span: s.tracer.Start("http", attrs...)}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		err := h(rec, req, ri)
		ri.span.SetAttr("tenant", ri.tenant)
		ri.span.SetAttr("cohort", ri.cohort)
		ri.span.SetAttr("status", rec.status)
		if err != nil {
			ri.span.Fail(err)
			s.log.Debug("serve: request failed", "method", req.Method, "path", req.URL.Path, "err", err)
		}
		elapsed := ri.span.End().Seconds()
		s.mLatency.Observe(elapsed)
		if tm := s.tenant(ri.tenant); tm != nil {
			tm.requests.Inc()
			tm.latency.Observe(elapsed)
			if rec.status >= http.StatusInternalServerError {
				tm.errors.Inc()
			}
		}
	}
}

// writeError emits the uniform JSON error body. Write errors are
// swallowed: the client hung up and there is no one left to tell.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()}) //lint:allow errcheck client disconnect mid-error-write leaves nothing to recover
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// fail maps a manager/core error onto an HTTP status.
func fail(w http.ResponseWriter, err error) error {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy), errors.Is(err, ErrTenantLimit):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, core.ErrNoProposal):
		// A duplicate or premature submission: the state is fine, the
		// request is out of sequence.
		status = http.StatusConflict
	}
	writeError(w, status, err)
	return err
}

func decode(req *http.Request, v any) error {
	body := http.MaxBytesReader(nil, req.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decode request: %w", err)
	}
	// Exactly one JSON document per request.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("serve: trailing data after request body")
	}
	return nil
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request, ri *reqInfo) error {
	var in CreateCohortRequest
	if err := decode(req, &in); err != nil {
		return fail(w, err)
	}
	ri.tenant = in.Tenant
	id, err := s.mgr.create(in, ri.span)
	if err != nil {
		return fail(w, err)
	}
	ri.cohort = id
	return writeJSON(w, http.StatusCreated, CreateCohortResponse{ID: id})
}

func (s *Server) handlePools(w http.ResponseWriter, req *http.Request, ri *reqInfo) error {
	id := req.PathValue("id")
	ri.bind(s, id)
	out, err := s.mgr.pools(id, ri.span)
	if err != nil {
		return fail(w, err)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleResults(w http.ResponseWriter, req *http.Request, ri *reqInfo) error {
	id := req.PathValue("id")
	ri.bind(s, id)
	var in SubmitResultsRequest
	if err := decode(req, &in); err != nil {
		return fail(w, err)
	}
	if err := s.mgr.submit(id, resultsFromJSON(in.Results), ri.span); err != nil {
		return fail(w, err)
	}
	out, err := s.mgr.pools(id, ri.span)
	if err != nil {
		return fail(w, err)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request, ri *reqInfo) error {
	id := req.PathValue("id")
	ri.bind(s, id)
	out, err := s.mgr.status(id, ri.span)
	if err != nil {
		return fail(w, err)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, req *http.Request, ri *reqInfo) error {
	id := req.PathValue("id")
	ri.bind(s, id)
	if err := s.mgr.delete(id, ri.span); err != nil {
		return fail(w, err)
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleDrain(w http.ResponseWriter, req *http.Request, ri *reqInfo) error {
	n, err := s.mgr.Drain()
	if err != nil {
		return fail(w, err)
	}
	return writeJSON(w, http.StatusOK, DrainResponse{Draining: true, Checkpointed: n})
}

// RetryAfter parses a Retry-After header value in seconds (the only form
// this server emits); 0 when absent or malformed.
func RetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
