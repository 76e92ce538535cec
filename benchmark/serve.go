package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	sbgt "repro"
	"repro/internal/engine"
	"repro/internal/serve"
)

// serveClients is the number of closed-loop clients, each with one
// keep-alive connection. The host has two cores and the clients share
// them with the server, so more clients would measure the scheduler.
const serveClients = 2

// scratchDir is where the serve workloads keep checkpoints, relative to
// the working directory (the root of the checkout): inside the
// benchmark's own directory, so a run writes nowhere else. It is removed
// on close.
const scratchDir = "benchmark/.tmp"

// spanHeader carries the client span's index to the handler wrapper, so
// the handler's span can name its parent.
const spanHeader = "X-Bench-Span"

// served is the HTTP workload: serve.Manager behind serve.Server on a
// real loopback listener, driven by closed-loop clients. Each client
// keeps window cohorts live and advances them round-robin one turn at a
// time, the way a lab information system with many open cohorts would.
// serve_hot keeps every posterior resident; serve_churn bounds residency
// far below the live set, so every turn restores its cohort from a
// checkpoint and evicts another.
type served struct {
	n, count, window, maxResident int

	e       *env
	cohorts []cohortInput // in population order
	order   []int         // the order the clients take them in
	pool    *engine.Pool
	mgr     *serve.Manager
	srv     *http.Server
	served  chan error
	dir     string
	base    string
	clients [serveClients]*http.Client
	// rec is the recorder of the traced round in flight, nil otherwise;
	// the handler wrapper reads it from the server's goroutines.
	rec atomic.Pointer[recorder]
}

func (s *served) setup(e *env) error {
	s.e = e
	var err error
	if s.cohorts, s.order, err = makeCohorts(e.seed, s.n, s.count); err != nil {
		return err
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return err
	}
	if s.dir, err = os.MkdirTemp(e.scratch, "ckpt"); err != nil {
		return err
	}
	// The hooks are the ones cmd/sbgt-serve attaches.
	s.pool = engine.NewPool(e.workers)
	s.pool.Instrument(e.reg)
	s.mgr, err = serve.NewManager(serve.ManagerConfig{
		Pool: s.pool, Dir: s.dir, MaxResident: s.maxResident,
		Obs: e.reg, Tracer: e.tracer, Flight: e.flight,
	})
	if err != nil {
		s.close() //lint:allow errcheck the constructor's error is the one to report
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close() //lint:allow errcheck the listener's error is the one to report
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:           s.traceHandler(serve.NewServer(serve.ServerConfig{Manager: s.mgr, Obs: e.reg, Tracer: e.tracer, Flight: e.flight})),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.served = make(chan error, 1)
	//lint:allow concurrency the HTTP server under test needs its accept loop; Shutdown in close stops it and close waits on s.served
	go func(srv *http.Server) { s.served <- srv.Serve(ln) }(s.srv) //lint:allow goroutineleak s.served is buffered for this one send
	for i := range s.clients {
		s.clients[i] = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		// Dial now, so the first timed request does not.
		if err := s.overHTTP(i, nil, nil).do("GET", "/healthz", "serve.healthz", nil, nil); err != nil {
			s.close() //lint:allow errcheck the dial's error is the one to report
			return fmt.Errorf("dial client %d: %w", i, err)
		}
	}
	// Probe: one cohort end to end over HTTP, with every check a round
	// applies.
	probe := &client{s: s, rr: &roundResult{}}
	probe.api = s.overHTTP(0, probe.rr, nil)
	lc := &liveCohort{in: &s.cohorts[0], lab: s.cohorts[0].oracle()}
	for !probe.advance(lc) {
	}
	if probe.rr.Failed > 0 {
		s.close() //lint:allow errcheck the probe's failure is the one to report
		return fmt.Errorf("probe cohort: %s", probe.rr.failure)
	}
	return nil
}

func (s *served) close() error {
	var first error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		first = s.srv.Shutdown(ctx)
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
		s.srv = nil
	}
	for i, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
			s.clients[i] = nil
		}
	}
	if s.mgr != nil {
		if err := s.mgr.Close(); err != nil && first == nil {
			first = err
		}
		s.mgr = nil
	}
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil && first == nil {
			first = err
		}
		s.dir = ""
		os.Remove(scratchDir) //lint:allow errcheck fails while another run shares the directory, which is fine
	}
	return first
}

// traceHandler wraps the server so that, on a traced round, the time
// inside the handler is a child span of the client's request span. The
// difference between the two is transport: the client's encode, the
// loopback socket both ways, net/http's parsing, the client's decode.
func (s *served) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.rec.Load()
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if rec == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		p := rec.get(parent)
		id := rec.open(span{Name: "serve.handler", Parent: parent, Cohort: p.Cohort, Turn: p.Turn})
		h.ServeHTTP(w, r)
		rec.close(id)
	})
}

func (s *served) round(rec *recorder) *roundResult {
	s.rec.Store(rec)
	parts := make([]*roundResult, serveClients)
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		//lint:allow concurrency the clients are independent HTTP callers, not lattice work; round waits for both
		go func(k int) {
			defer wg.Done()
			c := &client{s: s, rr: &roundResult{}, t: newTracer(rec)}
			c.api = s.overHTTP(k, c.rr, c.t)
			c.run(k, serveClients, s.window)
			parts[k] = c.rr
		}(k)
	}
	wg.Wait()
	rr := &roundResult{}
	for _, p := range parts {
		rr.merge(p)
	}
	if left := s.mgr.Cohorts(); len(left) > 0 {
		rr.fail(fmt.Errorf("%d cohorts still on the server after the round, first %s", len(left), left[0]))
	}
	return rr
}

// liveCohort is one campaign a client has open.
type liveCohort struct {
	index int
	in    *cohortInput
	lab   *sbgt.Oracle
	id    string
	turn  int
	pools *serve.PoolsResponse
}

// cohortAPI is the five calls a campaign makes: over HTTP in the rounds,
// straight into the manager in the traced run's second pass.
type cohortAPI interface {
	create(req serve.CreateCohortRequest) (id string, err error)
	pools(id string) (*serve.PoolsResponse, error)
	// results posts one stage's outcomes and returns the next pools.
	results(id string, req serve.SubmitResultsRequest) (*serve.PoolsResponse, error)
	status(id string) (*serve.StatusResponse, error)
	remove(id string) error
}

// client is one closed-loop caller.
type client struct {
	s   *served
	api cohortAPI
	rr  *roundResult
	t   *tracer
}

// run drives this client's share of the round: the cohorts at places
// first, first+stride, … of the seed's order, through a window of live
// slots visited round-robin. A visit gives the slot's cohort one turn; a
// finished cohort frees its slot for the next.
func (c *client) run(first, stride, window int) {
	slots := make([]*liveCohort, window)
	next, live := first, 0
	for {
		for i := range slots {
			if slots[i] == nil {
				if next >= len(c.s.order) {
					continue
				}
				index := c.s.order[next]
				in := &c.s.cohorts[index]
				slots[i] = &liveCohort{index: index, in: in, lab: in.oracle()}
				next += stride
				live++
			}
			if c.advance(slots[i]) {
				slots[i] = nil
				live--
			}
		}
		if live == 0 && next >= len(c.s.order) {
			return
		}
	}
}

// advance gives the cohort one turn and reports whether it is finished
// (classified, checked and deleted, or failed and abandoned). The first
// turn is two calls, create then pools; every later one is a single
// results post whose reply carries the next pools.
func (c *client) advance(lc *liveCohort) (finished bool) {
	c.t.at(lc.index, lc.turn)
	var err error
	if lc.id == "" {
		t0 := time.Now()
		end := c.t.begin("turn")
		lc.id, err = c.api.create(serve.CreateCohortRequest{
			Tenant:   fmt.Sprintf("lab%02d", lc.index%8),
			Risks:    lc.in.risks,
			Response: serve.ResponseSpec{Kind: "hyperbolic", MaxSens: assayMaxSens, Spec: assaySpec, D: assayD},
		})
		if err == nil {
			lc.pools, err = c.api.pools(lc.id)
		}
		end()
		c.rr.turns = append(c.rr.turns, float64(time.Since(t0))/1e6)
	} else {
		l0 := time.Now()
		req := serve.SubmitResultsRequest{Results: make([]serve.ResultJSON, len(lc.pools.Pools))}
		for j, p := range lc.pools.Pools {
			y := lc.lab.Test(sbgt.Subjects(p.Subjects...))
			req.Results[j] = serve.ResultJSON{Stage: p.Stage, Index: p.Index, Positive: y.Positive, Ct: y.Ct}
		}
		c.rr.oracle += time.Since(l0)
		t0 := time.Now()
		end := c.t.begin("turn")
		lc.pools, err = c.api.results(lc.id, req)
		end()
		c.rr.turns = append(c.rr.turns, float64(time.Since(t0))/1e6)
	}
	c.rr.Turns++
	lc.turn++
	if c.t != nil {
		if r := c.s.mgr.Resident(); r > c.rr.residentPeak {
			c.rr.residentPeak = r
		}
	}
	switch {
	case err != nil:
	case lc.pools.Done:
		err = c.finish(lc)
		if err == nil {
			return true
		}
	case lc.pools.Stage > maxStages:
		err = fmt.Errorf("no convergence after %d stages", maxStages)
	default:
		return false
	}
	c.rr.fail(fmt.Errorf("cohort %d turn %d: %w", lc.index, lc.turn-1, err))
	if lc.id != "" {
		// Leave nothing behind for the round's leftover check to trip on a
		// second time.
		c.api.remove(lc.id) //lint:allow errcheck best-effort clean-up of a cohort already counted as failed
	}
	return true
}

// finish fetches the classified cohort's status, checks it against the
// lab's own counts and the drawn truth, and deletes the cohort.
func (c *client) finish(lc *liveCohort) error {
	st, err := c.api.status(lc.id)
	if err != nil {
		return err
	}
	switch {
	case !st.Done || st.Remaining != 0:
		return fmt.Errorf("status after done: done=%v remaining=%d", st.Done, st.Remaining)
	case st.Tests != lc.lab.Tests():
		return fmt.Errorf("server counted %d tests, the lab ran %d", st.Tests, lc.lab.Tests())
	case len(st.Classifications) != len(lc.in.risks):
		return fmt.Errorf("%d classifications for %d subjects", len(st.Classifications), len(lc.in.risks))
	}
	correct := 0
	for _, cl := range st.Classifications {
		if (cl.Status == "positive") == lc.in.truth.Has(cl.Subject) {
			correct++
		}
	}
	if err := c.api.remove(lc.id); err != nil {
		return err
	}
	lc.id = ""
	c.rr.Cohorts++
	c.rr.Subjects += len(lc.in.risks)
	c.rr.Tests += st.Tests
	c.rr.Stages += st.Stage
	c.rr.Correct += correct
	return nil
}

// httpAPI makes the calls as requests on one keep-alive connection,
// counting requests and bytes into rr and opening a span per request on
// t (both may be nil).
type httpAPI struct {
	base string
	http *http.Client
	rr   *roundResult
	t    *tracer
}

func (s *served) overHTTP(k int, rr *roundResult, t *tracer) *httpAPI {
	return &httpAPI{base: s.base, http: s.clients[k], rr: rr, t: t}
}

func (a *httpAPI) create(req serve.CreateCohortRequest) (string, error) {
	var out serve.CreateCohortResponse
	err := a.do("POST", "/v1/cohorts", "serve.create", req, &out)
	return out.ID, err
}

func (a *httpAPI) pools(id string) (*serve.PoolsResponse, error) {
	out := &serve.PoolsResponse{}
	return out, a.do("GET", "/v1/cohorts/"+id+"/pools", "serve.pools", nil, out)
}

func (a *httpAPI) results(id string, req serve.SubmitResultsRequest) (*serve.PoolsResponse, error) {
	out := &serve.PoolsResponse{}
	return out, a.do("POST", "/v1/cohorts/"+id+"/results", "serve.results", req, out)
}

func (a *httpAPI) status(id string) (*serve.StatusResponse, error) {
	out := &serve.StatusResponse{}
	return out, a.do("GET", "/v1/cohorts/"+id, "serve.status", nil, out)
}

func (a *httpAPI) remove(id string) error {
	return a.do("DELETE", "/v1/cohorts/"+id, "serve.delete", nil, nil)
}

// do sends one request and decodes the reply. Any status outside 2xx is
// an error: the workloads are sized so the server never needs to shed,
// and a 429 here is a failed operation, not something to retry past.
func (a *httpAPI) do(method, path, spanName string, in, out any) error {
	end := a.t.begin(spanName) // encoding the request is the request's time too
	defer end()
	var body io.Reader
	var sent int
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body, sent = bytes.NewReader(b), len(b)
	}
	req, err := http.NewRequest(method, a.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := a.t.top(); id >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := a.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if a.rr != nil {
		a.rr.requests++
		a.rr.bytesOut += sent
		a.rr.bytesIn += len(reply)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	if out != nil {
		if err := json.Unmarshal(reply, out); err != nil {
			return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return nil
}
