package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"

	"repro/internal/obs"
)

// histDelta is how far one histogram family moved over a round, merged
// over every label set that matched.
type histDelta struct {
	count, sum float64
	bounds     []float64 // bucket upper bounds, the last +Inf
	cum        []float64 // observations at or under each bound
}

// quantile interpolates inside the bucket that holds the q-quantile, on
// a log scale because the bounds form a geometric ladder. The registry's
// ladder steps by 4x, so this is a coarse figure; mean() is exact.
func (h histDelta) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	rank := q * h.count
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		hi := h.bounds[i]
		if i == 0 {
			return hi
		}
		lo, below := h.bounds[i-1], h.cum[i-1]
		if math.IsInf(hi, 1) {
			return lo
		}
		frac := (rank - below) / (c - below)
		return lo * math.Pow(hi/lo, frac)
	}
	return h.bounds[len(h.bounds)-1]
}

func (h histDelta) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// regDelta is how far the obs registry moved over one traced round. The
// registry is the program's own account of layers the benchmark cannot
// wrap from outside: sessions the manager or the study runner build for
// themselves, the engine's pool, the cluster driver's RPCs.
type regDelta struct {
	before, after *obs.Snapshot
}

func hasLabels(have []obs.Label, want []obs.Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sumCounters(s *obs.Snapshot, name string) float64 {
	if s == nil {
		return 0
	}
	var v float64
	for _, c := range s.Counters {
		if c.Name == name {
			v += float64(c.Value)
		}
	}
	return v
}

// counter returns the named counter's movement, summed over label sets.
func (d regDelta) counter(name string) float64 {
	return sumCounters(d.after, name) - sumCounters(d.before, name)
}

func mergeHists(s *obs.Snapshot, name string, want []obs.Label, sign float64, into *histDelta) {
	if s == nil {
		return
	}
	for _, h := range s.Histograms {
		if h.Name != name || !hasLabels(h.Labels, want) {
			continue
		}
		if into.bounds == nil {
			into.bounds = make([]float64, len(h.Buckets))
			into.cum = make([]float64, len(h.Buckets))
			for i, b := range h.Buckets {
				into.bounds[i] = b.UpperBound
			}
		}
		if len(h.Buckets) != len(into.bounds) {
			continue // a family registers one ladder; a second would not merge
		}
		into.count += sign * float64(h.Count)
		into.sum += sign * h.Sum
		for i, b := range h.Buckets {
			into.cum[i] += sign * float64(b.Count)
		}
	}
}

// hist returns the named histogram family's movement, merged over every
// label set that carries all of want.
func (d regDelta) hist(name string, want ...obs.Label) histDelta {
	var h histDelta
	mergeHists(d.after, name, want, +1, &h)
	mergeHists(d.before, name, want, -1, &h)
	return h
}

// memSample reads the allocator and collector counters. ReadMemStats
// stops the world, so it is only ever called outside the timed window.
type memSample struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64 // seconds
}

type memDelta struct {
	allocMB, mallocs, gcCycles, gcCPUShare float64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	out := memSample{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: ms.NumGC}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = samples[1].Value.Float64()
	}
	return out
}

func (a memSample) since(b memSample) memDelta {
	d := memDelta{
		allocMB:  float64(a.allocBytes-b.allocBytes) / (1 << 20),
		mallocs:  float64(a.mallocs - b.mallocs),
		gcCycles: float64(a.gcCycles - b.gcCycles),
	}
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		d.gcCPUShare = (a.gcCPU - b.gcCPU) / cpu
	}
	return d
}

// layerMetrics computes one traced round's per-layer numbers from its
// spans, the registry's movement and the allocator's. A metric whose
// layer did nothing on this workload reads 0.
func layerMetrics(rec *recorder, r *roundResult) map[string]float64 {
	spans := rec.spans[r.spanBase:r.spanEnd]
	self := selfTimes(spans, r.spanBase)
	cohorts := float64(r.Cohorts)
	if cohorts == 0 { //lint:allow floats an exact zero count is the empty round, already reported as a failure
		cohorts = 1
	}

	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	durs := map[string][]float64{} // ms per span, by name
	total := map[string]float64{}  // ms, by name
	selfOf := map[string]float64{} // ms, by name
	var maxStates int64
	for i := range spans {
		s := &spans[i]
		d := ms(int64(s.dur()))
		durs[s.Name] = append(durs[s.Name], d)
		total[s.Name] += d
		selfOf[s.Name] += ms(int64(self[i]))
		if s.States > maxStates {
			maxStates = s.States
		}
	}
	p := func(name string, q float64) float64 {
		if len(durs[name]) == 0 {
			return 0
		}
		return percentile(durs[name], q)
	}
	share := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return part / whole
	}

	out := map[string]float64{
		"core.new_session_ms_p50": p("core.new_session", 0.5),
		"core.propose_ms_p50":     p("core.propose", 0.5),
		"core.propose_ms_p95":     p("core.propose", 0.95),
		"core.absorb_ms_p50":      p("core.absorb", 0.5),
		"core.absorb_ms_p95":      p("core.absorb", 0.95),
		"core.absorb_self_share":  share(selfOf["core.absorb"], total["core.absorb"]),

		"halving.select_self_ms_per_cohort": selfOf["core.propose"] / cohorts,

		"lattice.prior_build_ms_p50": p("lattice.prior_build", 0.5),
		"cluster.dial_ms_p50":        p("cluster.dial", 0.5),
		"stats.study_call_ms_p50":    p("stats.study_call", 0.5),

		"serve.create_ms_p50":  p("serve.create", 0.5),
		"serve.pools_ms_p50":   p("serve.pools", 0.5),
		"serve.results_ms_p50": p("serve.results", 0.5),
		"serve.status_ms_p50":  p("serve.status", 0.5),
		"serve.delete_ms_p50":  p("serve.delete", 0.5),
		"serve.handler_ms_p50": p("serve.handler", 0.5),

		"trace.attributed_share": 1 - share(selfOf["turn"], total["turn"]),

		"runtime.alloc_mb_per_cohort": r.mem.allocMB / cohorts,
		"runtime.allocs_per_cohort":   r.mem.mallocs / cohorts,
		"runtime.gc_cycles_per_round": r.mem.gcCycles,
		"runtime.gc_cpu_share":        r.mem.gcCPUShare,
	}

	// Posterior calls the decorator saw, by backend.
	ops := []string{"update", "marginals", "prefix_scan", "summary", "condition"}
	for _, layer := range []string{"lattice", "cluster"} {
		for _, op := range ops {
			out[layer+"."+op+"_ms_per_cohort"] = total[layer+"."+op] / cohorts
		}
	}
	var calls, states, selects, candidates float64
	fullNs := map[string]float64{}
	fullStates := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		op, ok := strings.CutPrefix(s.Name, "lattice.")
		if !ok {
			op, ok = strings.CutPrefix(s.Name, "cluster.")
		}
		if !ok || s.States == 0 {
			continue
		}
		if op == "prefix_scan" {
			// Halving scores every nested prefix of the ranked subjects plus
			// every singleton, the size-1 prefix counted once.
			n := math.Log2(float64(s.States))
			selects++
			candidates += float64(s.Work) + n - 1
		}
		if strings.HasPrefix(s.Name, "lattice.") {
			calls++
			states += float64(s.States)
			if s.States == maxStates {
				fullNs[op] += float64(s.dur())
				fullStates[op] += float64(s.States)
			}
		}
	}
	out["lattice.calls_per_cohort"] = calls / cohorts
	out["lattice.states_touched_per_cohort"] = states / cohorts
	out["halving.candidates_per_select"] = share(candidates, selects)
	for _, op := range []string{"update", "prefix_scan", "summary"} {
		out["lattice."+op+"_ns_per_state"] = share(fullNs[op], fullStates[op])
	}
	// Update reads and writes every state's float64 once: 16 bytes a
	// state, computed from the array size, not measured.
	if ns := out["lattice.update_ns_per_state"]; ns > 0 {
		out["lattice.update_gbps_computed"] = 16 / ns
	}

	if calls == 0 { //lint:allow floats an exact zero count means the decorator saw no dense call
		latticeFromRegistry(r.reg, cohorts, out)
	}

	tasks := r.reg.counter("sbgt_engine_pool_tasks_total")
	out["engine.tasks_per_cohort"] = tasks / cohorts
	out["engine.inline_share"] = share(r.reg.counter("sbgt_engine_pool_inline_total"), tasks)
	out["engine.submit_wait_ms_per_cohort"] = r.reg.hist("sbgt_engine_pool_submit_wait_seconds").sum * 1e3 / cohorts

	rpc := r.reg.hist("sbgt_cluster_rpc_seconds")
	out["cluster.rpcs_per_cohort"] = rpc.count / cohorts
	out["cluster.bytes_per_cohort"] = (r.reg.counter("sbgt_cluster_bytes_sent_total") + r.reg.counter("sbgt_cluster_bytes_recv_total")) / cohorts
	out["cluster.rpc_ms_mean"] = rpc.mean() * 1e3
	out["cluster.rpc_ms_p50"] = rpc.quantile(0.5) * 1e3
	out["cluster.rpc_ms_p95"] = rpc.quantile(0.95) * 1e3

	// Transport is what a request costs outside the handler: the client
	// span's own time once the handler span inside it is taken out.
	var transport []float64
	for i := range spans {
		switch spans[i].Name {
		case "serve.create", "serve.pools", "serve.results", "serve.status", "serve.delete":
			transport = append(transport, ms(int64(self[i])))
		}
	}
	if len(transport) > 0 {
		out["serve.transport_ms_p50"] = percentile(transport, 0.5)
	}
	requests := float64(r.requests)
	out["serve.requests_per_cohort"] = requests / cohorts
	out["serve.request_bytes_per_cohort"] = float64(r.bytesOut) / cohorts
	out["serve.response_bytes_per_cohort"] = float64(r.bytesIn) / cohorts
	out["serve.restores_per_cohort"] = r.reg.counter("sbgt_serve_restores_total") / cohorts
	out["serve.evictions_per_cohort"] = r.reg.counter("sbgt_serve_evictions_total") / cohorts
	out["serve.shed_share"] = share(r.reg.counter("sbgt_serve_requests_shed_total"), requests)
	out["serve.resident_peak"] = float64(r.residentPeak)
	return out
}

// latticeFromRegistry fills the dense backend's per-cohort times from
// the registry's per-op histograms. Sessions built inside the program
// (by the manager or the study runner) are out of the decorator's
// reach; these histograms are the program's own account of the same
// calls. Selection's own time is the session's select phase less the two
// posterior reads inside it.
func latticeFromRegistry(d regDelta, cohorts float64, out map[string]float64) {
	dense := obs.L("backend", "dense")
	var n float64
	for op, reg := range map[string]string{
		"update": "update", "marginals": "marginals", "prefix_scan": "prefix_neg_masses",
		"summary": "summary", "condition": "condition",
	} {
		h := d.hist("sbgt_posterior_op_seconds", dense, obs.L("op", reg))
		out["lattice."+op+"_ms_per_cohort"] = h.sum * 1e3 / cohorts
		n += h.count
	}
	out["lattice.calls_per_cohort"] = n / cohorts
	sel := d.hist("sbgt_session_stage_seconds", obs.L("phase", "select")).sum * 1e3 / cohorts
	if sel > 0 {
		out["halving.select_self_ms_per_cohort"] = sel -
			out["lattice.marginals_ms_per_cohort"] - out["lattice.prefix_scan_ms_per_cohort"]
	}
}
