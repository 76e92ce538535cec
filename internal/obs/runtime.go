package obs

import "runtime"

// RegisterRuntimeMetrics installs the two Go runtime gauges sbgt-top
// prints as its process-health line, sampled at scrape time:
//
//	sbgt_go_goroutines        live goroutine count
//	sbgt_go_heap_inuse_bytes  bytes in in-use heap spans
//
// GC and allocation detail is /debug/pprof/heap's job. Safe to call more
// than once on the same registry (GaugeFunc replaces). A nil registry is
// a no-op.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("sbgt_go_goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("sbgt_go_heap_inuse_bytes", func() float64 {
		var st runtime.MemStats
		runtime.ReadMemStats(&st)
		return float64(st.HeapInuse)
	})
}
