package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
)

// CLIFlags bundles the observability flags every sbgt command shares:
// -metrics-addr, -log-level, -trace-out and the offline profiling pair
// -cpuprofile / -memprofile. Register them with RegisterFlags, parse,
// then call Start to materialize the runtime.
type CLIFlags struct {
	MetricsAddr string
	LogLevel    string
	TraceOut    string
	CPUProfile  string
	MemProfile  string
}

// RegisterFlags installs the shared observability flags on fs
// (flag.CommandLine when nil) and returns the struct they populate.
func RegisterFlags(fs *flag.FlagSet) *CLIFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &CLIFlags{}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve /metrics, /metrics.json, /healthz, /spans, and pprof on this address (empty = off)")
	fs.StringVar(&f.LogLevel, "log-level", "info",
		"log verbosity: debug | info | warn | error")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write collected spans as NDJSON to this file on exit (empty = off)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "",
		"write a CPU profile covering Start-to-Close to this file (empty = off)")
	fs.StringVar(&f.MemProfile, "memprofile", "",
		"write an allocation profile at Close to this file (empty = off)")
	return f
}

// Runtime is the live observability state a command builds from its
// flags: a metric registry, a span tracer, a leveled stderr logger, and
// (when -metrics-addr is set) an HTTP introspection server. Close
// releases the server and flushes the trace file.
type Runtime struct {
	Reg    *Registry
	Tracer *Tracer
	Flight *FlightRecorder
	Log    *slog.Logger

	server   *Server
	traceOut string
	cpuOut   *os.File // non-nil while a CPU profile is being collected
	memOut   string

	readyMu  sync.Mutex
	readyErr error

	closeMu  sync.Mutex
	closed   bool
	closeErr error
}

// Start materializes the parsed flags into a Runtime. component tags
// every log line with the command's name.
func (f *CLIFlags) Start(component string) (*Runtime, error) {
	log, err := CLILogger(os.Stderr, component, f.LogLevel)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		Reg:      NewRegistry(),
		Tracer:   NewTracer(0),
		Flight:   NewFlightRecorder(0),
		Log:      log,
		traceOut: f.TraceOut,
		memOut:   f.MemProfile,
	}
	rt.Tracer.SetDropCounter(rt.Reg.Counter("sbgt_obs_spans_dropped_total"))
	rt.Flight.Attach(rt.Tracer)
	rt.Flight.Instrument(rt.Reg)
	rt.Flight.LogDumps(rt.Log)
	if f.MetricsAddr != "" {
		rt.server, err = Serve(f.MetricsAddr, MuxConfig{
			Reg: rt.Reg, Tracer: rt.Tracer, Flight: rt.Flight,
			Ready: []func() error{rt.ReadyError},
		}, rt.Log)
		if err != nil {
			return nil, err
		}
	}
	if f.CPUProfile != "" {
		out, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			//lint:allow errcheck the create just succeeded; nothing to do about a close error on the bail-out path
			_ = out.Close()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		rt.cpuOut = out
	}
	return rt, nil
}

// SetReadyError flips the runtime's /readyz state: nil means serving,
// non-nil serves 503 with the error text. Executors flip this to a drain
// error on SIGTERM so a load balancer (or the driver's redial loop) stops
// routing to them before the listener closes.
func (rt *Runtime) SetReadyError(err error) {
	rt.readyMu.Lock()
	rt.readyErr = err
	rt.readyMu.Unlock()
}

// ReadyError reports the current readiness state (the func form
// MuxConfig.Ready wants).
func (rt *Runtime) ReadyError() error {
	rt.readyMu.Lock()
	defer rt.readyMu.Unlock()
	return rt.readyErr
}

// DumpFlightOnSIGQUIT installs a SIGQUIT handler that writes the
// retained anomaly dumps (the /debug/flight document) and then the live
// span window (the /spans document) to stderr as JSON and keeps the
// process running — kill -QUIT becomes a non-destructive "what just
// happened" probe. Note this replaces the Go runtime's default SIGQUIT
// stack dump; /debug/pprof/goroutine still serves stacks when
// -metrics-addr is set.
func (rt *Runtime) DumpFlightOnSIGQUIT() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			rt.Log.Info("obs: SIGQUIT received, dumping anomaly dumps and spans to stderr")
			err := rt.Flight.WriteJSON(os.Stderr)
			if err == nil {
				err = rt.Tracer.writeSpans(os.Stderr)
			}
			if err != nil {
				rt.Log.Error("obs: flight dump failed", "err", err)
			}
		}
	}()
}

// Fatal logs err at error level and exits the process with status 1.
// It is the obs-flavored replacement for log.Fatal in command mains.
func (rt *Runtime) Fatal(err error) {
	rt.Log.Error(err.Error())
	os.Exit(1)
}

// Close stops the metrics server (if any), finishes the CPU profile and
// writes the allocation profile (when requested), and writes the trace
// file (if configured). It returns the first error; commands exiting
// anyway may log it at warn level. Safe to call concurrently and more
// than once: one caller does the teardown, the rest wait for it and
// observe the same result — the shape a SIGTERM drain racing a deferred
// Close needs.
func (rt *Runtime) Close() error {
	rt.closeMu.Lock()
	defer rt.closeMu.Unlock()
	if rt.closed {
		return rt.closeErr
	}
	rt.closed = true
	rt.closeErr = rt.closeLocked()
	return rt.closeErr
}

func (rt *Runtime) closeLocked() error {
	var first error
	if rt.server != nil {
		if err := rt.server.Close(); err != nil {
			first = err
		}
	}
	if rt.cpuOut != nil {
		pprof.StopCPUProfile()
		if err := rt.cpuOut.Close(); err != nil && first == nil {
			first = fmt.Errorf("obs: cpuprofile: %w", err)
		}
		rt.cpuOut = nil
	}
	if rt.memOut != "" {
		f, err := os.Create(rt.memOut)
		if err == nil {
			runtime.GC() // settle live-heap accounting before the snapshot
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && first == nil {
			first = fmt.Errorf("obs: memprofile: %w", err)
		}
		rt.memOut = ""
	}
	if rt.traceOut != "" {
		f, err := os.Create(rt.traceOut)
		if err == nil {
			err = rt.Tracer.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && first == nil {
			first = fmt.Errorf("obs: trace-out: %w", err)
		}
	}
	return first
}
