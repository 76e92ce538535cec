package obs

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MuxConfig names what the observability mux serves. Reg, Tracer and
// Flight may be nil; the corresponding endpoints then serve empty
// documents. Ready funcs drive /readyz — nil error means ready; a
// non-nil error serves 503 with the error text as the body, which is how
// a draining server sheds traffic before its listener closes. With no
// readiness func /readyz mirrors /healthz (a process with no drain
// states is always ready).
type MuxConfig struct {
	Reg    *Registry
	Tracer *Tracer
	Flight *FlightRecorder
	Ready  []func() error
}

// NewMux builds the observability HTTP mux:
//
//	/metrics        Prometheus text exposition of the registry
//	/metrics.json   JSON snapshot of the registry
//	/healthz        liveness probe (200 "ok")
//	/readyz         readiness probe (200 "ok", or 503 + reason)
//	/spans          JSON {"dropped": n, "spans": [...]} of the tracer's
//	                buffered spans plus its retention-bound eviction count
//	/debug/flight   the retained anomaly dumps, each a frozen tail of the
//	                tracer's span ring with its self-time layers
//	/debug/pprof/*  net/http/pprof profiles
//
// Liveness and readiness are distinct probes: /healthz answers "is the
// process running" and is always 200, while /readyz answers "should a
// load balancer route traffic here".
//
// A non-nil Reg gets the Go runtime collector (sbgt_go_*) installed, so
// every served registry reports process health for free. The mux is
// standalone (not http.DefaultServeMux), so importing this package never
// leaks pprof onto a server the caller did not ask for.
func NewMux(cfg MuxConfig) *http.ServeMux {
	reg, tracer, flight, ready := cfg.Reg, cfg.Tracer, cfg.Flight, cfg.Ready
	RegisterRuntimeMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		var snap *Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		} else {
			snap = &Snapshot{}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WritePrometheus(w); err != nil {
			// The client hung up mid-write; nothing to recover.
			return
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snap *Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		} else {
			snap = &Snapshot{}
		}
		if err := snap.WriteJSON(w); err != nil {
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			return
		}
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, fn := range ready {
			if fn == nil {
				continue
			}
			if err := fn(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "not ready: %v\n", err)
				return
			}
		}
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			return
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		//lint:allow errcheck the client hung up mid-write; nothing to recover
		_ = tracer.writeSpans(w)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		//lint:allow errcheck the client hung up mid-write; nothing to recover
		_ = flight.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Serve starts the observability mux on addr (host:port; ":0" picks an
// ephemeral port) and serves it on a background goroutine. The returned
// Server reports the bound address and shuts the listener down on Close.
// log, if non-nil, receives a startup line and any serve failure.
func Serve(addr string, cfg MuxConfig, log *slog.Logger) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	log = OrNop(log)
	srv := &http.Server{
		Handler:           NewMux(cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s := &Server{lis: lis, srv: srv}
	go func() {
		if err := srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("obs: metrics server stopped", "addr", lis.Addr().String(), "err", err)
		}
	}()
	log.Info("obs: serving metrics", "addr", lis.Addr().String())
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server and releases the listener. Idempotent.
func (s *Server) Close() error { return s.srv.Close() }
