package main

// metric is one named number the benchmark prints. BENCHMARK.json lists
// the same names, units and bounds; TestManifestMatches keeps the two in
// step.
type metric struct {
	name   string
	unit   string
	better direction
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	bound float64
}

// endToEnd are the numbers a user of the system sees, the same ten on
// every workload.
//
// A manifest has one bound per metric, not per workload, and the
// acceptance check refuses a benchmark whose ten seeded runs spread
// (first to third quartile, over the median) by more than the bound, so
// each bound is about three times the widest spread any workload showed
// in SELFCHECK.txt (14 % on the timings, 5 to 8 % on peak RSS), or the
// 25 % a manifest allows where that is less. The
// three count metrics repeat exactly and keep tight bounds. ok_share is
// the tenth: the share of operations that did not fail, which is 1 on
// every run that counts (a failed operation also makes the run
// incorrect). It is the complement of the failed share because a metric
// that reads 0 has no relative spread to hold a bound against; its bound
// is a thousandth, one failed call of a study_small run.
var endToEnd = []metric{
	{"setup_s", "s", lowerBetter, 0.25},
	{"cohorts_per_s", "1/s", higherBetter, 0.25},
	{"turn_p50_ms", "ms", lowerBetter, 0.25},
	{"turn_p95_ms", "ms", lowerBetter, 0.25},
	{"cpu_ms_per_cohort", "ms", lowerBetter, 0.25},
	{"peak_rss_mb", "MB", lowerBetter, 0.15},
	{"tests_per_subject", "ratio", lowerBetter, 0.01},
	{"stages_per_cohort", "ratio", lowerBetter, 0.01},
	{"accuracy", "ratio", higherBetter, 0.005},
	{"ok_share", "ratio", higherBetter, 0.001},
}

// perLayer are the traced run's numbers, grouped by the module they
// describe. Every traced run prints all of them; a layer that is idle on
// a workload reads 0 there, which is itself the prediction (for example
// serve.restores_per_cohort on serve_hot).
var perLayer = []metric{
	// core: the session state machine, timed around each call.
	{name: "core.new_session_ms_p50", unit: "ms"},
	{name: "core.propose_ms_p50", unit: "ms"},
	{name: "core.propose_ms_p95", unit: "ms"},
	{name: "core.absorb_ms_p50", unit: "ms"},
	{name: "core.absorb_ms_p95", unit: "ms"},
	{name: "core.absorb_self_share", unit: "ratio"},
	// halving: selection logic outside the posterior's kernels.
	{name: "halving.select_self_ms_per_cohort", unit: "ms"},
	{name: "halving.candidates_per_select", unit: "count"},
	// lattice: the dense backend's kernels, busy time per cohort.
	{name: "lattice.prior_build_ms_p50", unit: "ms"},
	{name: "lattice.update_ms_per_cohort", unit: "ms"},
	{name: "lattice.marginals_ms_per_cohort", unit: "ms"},
	{name: "lattice.prefix_scan_ms_per_cohort", unit: "ms"},
	{name: "lattice.summary_ms_per_cohort", unit: "ms"},
	{name: "lattice.condition_ms_per_cohort", unit: "ms"},
	{name: "lattice.calls_per_cohort", unit: "count"},
	{name: "lattice.states_touched_per_cohort", unit: "count"},
	{name: "lattice.update_ns_per_state", unit: "ns"},
	{name: "lattice.prefix_scan_ns_per_state", unit: "ns"},
	{name: "lattice.summary_ns_per_state", unit: "ns"},
	{name: "lattice.update_gbps_computed", unit: "GB/s", better: higherBetter},
	{name: "lattice.update_roofline_share", unit: "ratio", better: higherBetter},
	// engine: the worker pool under the kernels and the study fan-out.
	{name: "engine.tasks_per_cohort", unit: "count"},
	{name: "engine.inline_share", unit: "ratio"},
	{name: "engine.submit_wait_ms_per_cohort", unit: "ms"},
	// cluster: the same posterior calls through the driver and executors.
	{name: "cluster.dial_ms_p50", unit: "ms"},
	{name: "cluster.rpcs_per_cohort", unit: "count"},
	{name: "cluster.bytes_per_cohort", unit: "count"},
	{name: "cluster.rpc_ms_mean", unit: "ms"},
	{name: "cluster.rpc_ms_p50", unit: "ms"},
	{name: "cluster.rpc_ms_p95", unit: "ms"},
	{name: "cluster.update_ms_per_cohort", unit: "ms"},
	{name: "cluster.marginals_ms_per_cohort", unit: "ms"},
	{name: "cluster.prefix_scan_ms_per_cohort", unit: "ms"},
	{name: "cluster.summary_ms_per_cohort", unit: "ms"},
	{name: "cluster.condition_ms_per_cohort", unit: "ms"},
	{name: "cluster.vs_dense_ratio", unit: "ratio"},
	// serve: per-route client times, the handler inside them, and the
	// manager inside that.
	{name: "serve.create_ms_p50", unit: "ms"},
	{name: "serve.pools_ms_p50", unit: "ms"},
	{name: "serve.results_ms_p50", unit: "ms"},
	{name: "serve.status_ms_p50", unit: "ms"},
	{name: "serve.delete_ms_p50", unit: "ms"},
	{name: "serve.handler_ms_p50", unit: "ms"},
	{name: "serve.transport_ms_p50", unit: "ms"},
	{name: "serve.manager_ms_p50", unit: "ms"},
	{name: "serve.http_json_share", unit: "ratio"},
	{name: "serve.requests_per_cohort", unit: "count"},
	{name: "serve.request_bytes_per_cohort", unit: "count"},
	{name: "serve.response_bytes_per_cohort", unit: "count"},
	{name: "serve.restores_per_cohort", unit: "count"},
	{name: "serve.evictions_per_cohort", unit: "count"},
	{name: "serve.shed_share", unit: "ratio"},
	{name: "serve.resident_peak", unit: "count"},
	// latticeio: one mid-campaign N=16 session saved to and loaded from
	// memory.
	{name: "latticeio.save_ms_p50", unit: "ms"},
	{name: "latticeio.load_ms_p50", unit: "ms"},
	{name: "latticeio.checkpoint_bytes", unit: "count"},
	{name: "latticeio.save_mbps", unit: "MB/s", better: higherBetter},
	// stats: the study runner.
	{name: "stats.study_call_ms_p50", unit: "ms"},
	{name: "stats.serial_replicates_per_s", unit: "1/s", better: higherBetter},
	{name: "stats.parallel_speedup", unit: "ratio", better: higherBetter},
	{name: "stats.session_us_per_replicate", unit: "us"},
	// runtime: the Go allocator and collector over the timed rounds.
	{name: "runtime.alloc_mb_per_cohort", unit: "MB"},
	{name: "runtime.allocs_per_cohort", unit: "count"},
	{name: "runtime.gc_cycles_per_round", unit: "count"},
	{name: "runtime.gc_cpu_share", unit: "ratio"},
	// bench, trace, mem: validity signals about the measurement itself.
	{name: "bench.warmup_s", unit: "s"},
	{name: "bench.first_round_penalty", unit: "ratio"},
	{name: "bench.round_spread", unit: "ratio"},
	{name: "bench.oracle_share", unit: "ratio"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.attributed_share", unit: "ratio", better: higherBetter},
	{name: "mem.triad_gbps", unit: "GB/s", better: higherBetter},
}

// workloadInfo names a workload, says why it exists, and builds it.
type workloadInfo struct {
	name string
	why  string
	// build returns the workload at its benchmark size, or at toy size
	// (N=10, a few cohorts) for the smoke test that keeps the driver under
	// `go test ./...`.
	build func(toy bool) workload
}

// The cohort counts below were tuned once, so that a round takes 1.2 to
// 1.5 s on the two-core reference host, and are frozen: changing one
// changes what every recorded number means.
var workloads = []workloadInfo{
	{
		name: "dense_campaign",
		why:  "N=22 dense in-process, 4 cohorts a round: 32 MB state vectors, so lattice kernels and engine scheduling are the time; serve, cluster and latticeio are idle",
		build: func(toy bool) workload {
			if toy {
				return &campaign{n: 10, count: 3, triadCap: 1 << 20, collect: true}
			}
			return &campaign{n: 22, count: 4, triadCap: 1 << 30, collect: true}
		},
	},
	{
		name: "study_small",
		why:  "Engine.RunStudy, N=12, 48 replicates a call, 64 calls a round: cache-resident lattices, so per-session fixed costs are the time and bandwidth work must show no change",
		build: func(toy bool) workload {
			if toy {
				return &study{n: 10, replicates: 4, calls: 2}
			}
			return &study{n: 12, replicates: 48, calls: 64}
		},
	},
	{
		name: "cluster_campaign",
		why:  "the dense loop on the cluster backend, 2 loopback executors, N=18, 16 cohorts a round: RPC count, bytes, merge and shard install are the time; RPC batching shows here and nowhere else",
		build: func(toy bool) workload {
			if toy {
				return &campaign{n: 10, count: 3, clusterExec: 2}
			}
			return &campaign{n: 18, count: 16, clusterExec: 2}
		},
	},
	{
		name: "serve_hot",
		why:  "Manager+Server on loopback, every posterior resident, 2 closed-loop clients, N=16, 192 cohorts a round: routing, JSON, admission, metrics hooks and the cohort lock are the cost",
		build: func(toy bool) workload {
			if toy {
				return &served{n: 10, count: 6, window: 2, maxResident: 256}
			}
			return &served{n: 16, count: 192, window: 16, maxResident: 256}
		},
	},
	{
		name: "serve_churn",
		why:  "serve_hot with MaxResident 4 under 32 live cohorts, 48 a round: every turn restores from a checkpoint and evicts another, so latticeio, rename and LRU bookkeeping are paid on the hot path",
		build: func(toy bool) workload {
			if toy {
				return &served{n: 10, count: 6, window: 2, maxResident: 1} // one client alone overflows it, however the two interleave
			}
			return &served{n: 16, count: 48, window: 16, maxResident: 4}
		},
	},
}
