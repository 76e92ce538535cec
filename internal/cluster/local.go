package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"

	"repro/internal/obs"
)

// StartLocalObs launches k in-process executors on ephemeral loopback
// ports and returns their addresses plus a stop function that tears all
// of them down. It exists so single-machine callers (CLIs, studies, tests)
// can use the distributed backend without arranging external executor
// processes: the wire protocol, sharding, and merge order are exactly
// those of a real deployment — only the network is loopback.
//
// workers sets each executor's local pool size as in NewExecutor
// (<= 0 means GOMAXPROCS). Every executor is instrumented into reg (nil
// disables metrics): executor pools report into the shared
// sbgt_engine_pool_* series. stop is safe to call more than once and
// after the executors have already failed.
func StartLocalObs(k, workers int, reg *obs.Registry) (addrs []string, stop func(), err error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("cluster: executor count %d outside [1,∞)", k)
	}
	listeners := make([]net.Listener, 0, k)
	execs := make([]*Executor, 0, k)
	stop = func() {
		for _, l := range listeners {
			l.Close() //lint:allow errcheck one-way teardown of a loopback listener
		}
		for _, e := range execs {
			e.Close()
		}
	}
	for i := 0; i < k; i++ {
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			stop()
			return nil, nil, fmt.Errorf("cluster: local listener %d: %w", i, lerr)
		}
		e := NewExecutor(workers)
		e.Instrument(reg)
		listeners = append(listeners, l)
		execs = append(execs, e)
		go func(e *Executor, l net.Listener) {
			if serr := e.Serve(l); serr != nil && !errors.Is(serr, net.ErrClosed) {
				// Serve only returns on accept failure; after stop() that is
				// the expected ErrClosed, anything else is worth a log line.
				slog.Default().Warn("cluster: local executor failed", "addr", l.Addr().String(), "err", serr)
			}
		}(e, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, stop, nil
}
