// Command sbgt-exec runs one lattice executor: it owns a shard of the
// distributed posterior and serves kernel requests from an sbgt driver
// (a cluster sbgt.Backend's Addrs, or cmd/sbgt-bench -exp F6) until told
// to shut down.
//
// Usage:
//
//	sbgt-exec -listen 127.0.0.1:7070 -workers 4
//
// Start one process per node (or per NUMA domain), then hand the list of
// addresses to the driver. The executor is stateless between drivers: a
// new driver connection starts with no shard and builds one with
// BuildPrior (the executor keeps only the storage, for the next shard).
// Drivers and sbgt-exec must be upgraded together: each refuses a peer of
// another wire-frame version on its first frame.
//
// With -metrics-addr the executor also serves its own /metrics (the
// worker-pool series), /healthz, /readyz, /spans, /debug/flight, and
// pprof — the per-node introspection surface of a real deployment. /readyz mirrors the executor's drain state: it
// serves 200 while accepting drivers and flips to 503 the moment SIGTERM
// or SIGINT arrives, before the listener closes, so an orchestrator
// health-checking executors stops routing new drivers to a terminating
// node. SIGQUIT writes the anomaly dumps and the span window to stderr
// without exiting.
// When a driver propagates a trace context, the executor's dispatch
// spans appear both on its /spans endpoint and in the driver's assembled
// trace (they ship back in the response trailer).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7070", "address to serve on")
		workers = flag.Int("workers", 0, "local workers (0 = GOMAXPROCS)")
	)
	obsFlags := obs.RegisterFlags(nil)
	flag.Parse()

	rt, err := obsFlags.Start("sbgt-exec")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbgt-exec:", err)
		os.Exit(2)
	}
	defer rt.Close()
	rt.DumpFlightOnSIGQUIT()

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		rt.Fatal(fmt.Errorf("sbgt-exec: listen %s: %w", *listen, err))
	}
	e := cluster.NewExecutor(*workers)
	defer e.Close()
	e.SetLogger(rt.Log)
	e.SetTracer(rt.Tracer)
	e.Instrument(rt.Reg)

	// Drain on SIGTERM/SIGINT: flip /readyz to 503 first, then close the
	// listener. In-flight driver connections finish their current RPC; the
	// orchestrator sees not-ready before the port goes away.
	var draining atomic.Bool
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() { //lint:allow goroutineleak the drain watcher lives for the process; it exits with it
		sig := <-sigs
		draining.Store(true)
		rt.SetReadyError(fmt.Errorf("sbgt-exec: draining on %s", sig))
		rt.Log.Info("sbgt-exec: draining on signal", "signal", sig.String())
		lis.Close() //lint:allow errcheck closing the accept loop is the drain action; a double close is harmless
	}()

	rt.Log.Info("sbgt-exec: serving", "addr", lis.Addr().String())
	if err := e.Serve(lis); err != nil && !draining.Load() {
		rt.Fatal(err)
	}
}
