// Command sbgt-serve hosts surveillance campaigns as a long-lived
// multi-tenant service.
//
// Where cmd/sbgt runs one campaign to completion inside a single
// process, sbgt-serve inverts the loop for the operational reality of
// surveillance: lab round-trips take hours, results arrive out of band,
// and one deployment watches thousands of cohorts. Clients create a
// cohort, fetch proposed pools, run the physical tests on their own
// schedule, and post outcomes back; the session manager keeps a bounded
// number of posteriors resident, checkpoints idle cohorts to disk, and
// restores them on demand.
//
// API (JSON over HTTP):
//
//	POST   /v1/cohorts              create a cohort
//	GET    /v1/cohorts/{id}/pools   next lab work (idempotent)
//	POST   /v1/cohorts/{id}/results submit one stage of outcomes
//	GET    /v1/cohorts/{id}         status + classifications
//	DELETE /v1/cohorts/{id}         close and forget a cohort
//	POST   /v1/drain                checkpoint everything, stop admitting
//
// plus /metrics, /metrics.json, /healthz, /readyz, /spans, /debug/flight
// and /debug/pprof/* on the same listener. SIGTERM and SIGINT drain
// gracefully: admission stops, /readyz flips to 503, every resident
// cohort is checkpointed, and the process exits 0.
//
// Flags:
//
//	-addr string          listen address (default 127.0.0.1:8344)
//	-addr-file string     write the bound address here (for scripts; "" = off)
//	-ckpt-dir string      checkpoint directory (default ./sbgt-ckpt)
//	-max-resident int     posteriors kept in memory (default 256)
//	-max-cohorts int      total cohort bound (default 65536)
//	-max-per-tenant int   per-tenant cohort bound (0 = unbounded)
//	-max-inflight int     concurrently served requests before 429 (default 512)
//	-idle-after duration  idle time before checkpointing a cohort (default 5m)
//	-workers int          engine workers (0 = GOMAXPROCS)
//
// SLO flags (the evaluator runs only when at least one objective is set):
//
//	-slo-p99 duration       p99 request-latency objective (0 = off)
//	-slo-shed-burst int     max sheds per evaluation window (0 = off)
//	-slo-interval duration  evaluation window (default 10s)
//	-slo-degrade            flip /readyz to 503 while an objective burns
//
// Breaches trigger flight-recorder anomaly auto-dumps, each a frozen tail
// of the span ring totalled as self time per span name (view them on
// /debug/flight; SIGQUIT writes the dumps and the live /spans window to
// stderr without exiting).
//
// Observability flags (shared across the sbgt commands): -metrics-addr,
// -log-level, -trace-out, -cpuprofile, -memprofile. A breach's dump
// totals its window as self time per span name (http, lock_wait,
// restore, select, update, classify, checkpoint), and a request's self
// times add up to its duration, so it names the slow layer; for a
// flame graph of a live server, /debug/pprof/profile is on the API
// listener and `go tool pprof -diff_base` compares two of them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8344", "listen address")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file (for scripts)")
		ckptDir      = flag.String("ckpt-dir", "sbgt-ckpt", "checkpoint directory for idle and drained cohorts")
		maxResident  = flag.Int("max-resident", 256, "posteriors kept in memory")
		maxCohorts   = flag.Int("max-cohorts", 65536, "total cohort bound")
		maxPerTenant = flag.Int("max-per-tenant", 0, "per-tenant cohort bound (0 = unbounded)")
		maxInflight  = flag.Int("max-inflight", 512, "concurrently served requests before load shedding")
		idleAfter    = flag.Duration("idle-after", 5*time.Minute, "idle time before a cohort is checkpointed")
		workers      = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")

		sloP99       = flag.Duration("slo-p99", 0, "p99 request-latency objective (0 = off)")
		sloShedBurst = flag.Int("slo-shed-burst", 0, "max sheds per evaluation window before anomaly (0 = off)")
		sloInterval  = flag.Duration("slo-interval", 10*time.Second, "SLO evaluation window")
		sloDegrade   = flag.Bool("slo-degrade", false, "flip /readyz to 503 while an SLO objective burns")
	)
	obsFlags := obs.RegisterFlags(nil)
	flag.Parse()

	rt, err := obsFlags.Start("sbgt-serve")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbgt-serve:", err)
		os.Exit(2)
	}
	defer rt.Close()

	rt.DumpFlightOnSIGQUIT()

	pool := engine.NewPool(*workers)
	defer pool.Close()
	pool.Instrument(rt.Reg)

	mgr, err := serve.NewManager(serve.ManagerConfig{
		Pool:         pool,
		Dir:          *ckptDir,
		MaxResident:  *maxResident,
		MaxCohorts:   *maxCohorts,
		MaxPerTenant: *maxPerTenant,
		IdleAfter:    *idleAfter,
		Obs:          rt.Reg,
		Tracer:       rt.Tracer,
		Log:          rt.Log,
		Flight:       rt.Flight,
	})
	if err != nil {
		rt.Fatal(err)
	}

	var objectives []obs.Objective
	if *sloP99 > 0 {
		objectives = append(objectives, obs.Objective{
			Name:     "p99_request",
			Metric:   "sbgt_serve_request_seconds",
			Quantile: 0.99,
			Target:   sloP99.Seconds(),
			Degrade:  *sloDegrade,
		})
	}
	if *sloShedBurst > 0 {
		objectives = append(objectives, obs.Objective{
			Name:        "shed_burst",
			BurstMetric: "sbgt_serve_requests_shed_total",
			Max:         float64(*sloShedBurst),
			Degrade:     *sloDegrade,
		})
	}
	var slo *obs.SLO
	if len(objectives) > 0 {
		slo, err = obs.NewSLO(rt.Reg, rt.Flight, objectives)
		if err != nil {
			rt.Fatal(err)
		}
		stop := slo.Start(*sloInterval)
		defer stop()
		rt.Log.Info("sbgt-serve: SLO evaluator running", "objectives", len(objectives), "interval", *sloInterval)
	}

	handler := serve.NewServer(serve.ServerConfig{
		Manager:     mgr,
		MaxInflight: *maxInflight,
		Obs:         rt.Reg,
		Tracer:      rt.Tracer,
		Log:         rt.Log,
		Flight:      rt.Flight,
		SLO:         slo,
	})

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		rt.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(lis.Addr().String()+"\n"), 0o644); err != nil {
			rt.Fatal(err)
		}
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }() //lint:allow goroutineleak serveErr is buffered; the single send cannot block
	rt.Log.Info("sbgt-serve: listening", "addr", lis.Addr().String(), "ckpt-dir", *ckptDir,
		"max-resident", *maxResident, "max-cohorts", *maxCohorts)

	// Drain on SIGTERM/SIGINT: stop admitting (429/503 + /readyz 503),
	// checkpoint every resident cohort, then close the listener. A second
	// signal aborts the wait and exits immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		rt.Fatal(err)
	case sig := <-sigs:
		rt.Log.Info("sbgt-serve: draining on signal", "signal", sig.String())
	}
	n, derr := mgr.Drain()
	if derr != nil {
		rt.Log.Error("sbgt-serve: drain incomplete", "err", derr)
	}
	rt.Log.Info("sbgt-serve: drain complete", "checkpointed", n)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		rt.Log.Warn("sbgt-serve: shutdown", "err", err)
	}
	if derr != nil {
		os.Exit(1)
	}
}
