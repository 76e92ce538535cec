// Command sbgt-bench regenerates every evaluation artifact of the
// reproduction: the three speedup tables (T1 lattice ops, T2 test
// selection, T3 statistical analyses), the scaling and accuracy figures
// (F1–F7), the design ablations (A1, A3, A4) and the serve load runs
// (S1, S1R, S1P). The kernel ablations A2 and A5 are not experiments here:
// their reference arms are test oracles, compared by
// `go test ./internal/lattice -run '^$' -bench 'Fusion|NegMassCrossover|NegMassesTiling|Summary|Condition'`.
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// recorded results.
//
// Usage:
//
//	sbgt-bench -exp all            # everything (minutes)
//	sbgt-bench -exp T1,T2 -quick   # subset at reduced sizes
//	sbgt-bench -list               # show the experiment registry
//
// Flags:
//
//	-exp string     comma-separated experiment ids, or "all" (default "all")
//	-quick          reduced problem sizes for smoke runs
//	-csv            also emit each table as CSV after the aligned form
//	-workers int    engine workers (0 = GOMAXPROCS)
//	-seed uint      root seed for every randomized experiment (default 1)
//	-backend string posterior backend for the study experiments (F3, F4):
//	                dense | sparse | cluster (default dense)
//	-json string    write a machine-readable run report (experiments,
//	                wall times, and the full metric snapshot — including
//	                per-stage session timings) to this file; "-" = stdout
//	-baseline string
//	                write a schema-versioned bench file (BENCH_<n>.json:
//	                per-experiment wall times, registry snapshot, git SHA)
//	                here, for regression comparison with sbgt-benchdiff
//
// Observability flags (shared across the sbgt commands):
//
//	-metrics-addr string  serve /metrics, /healthz, and pprof here
//	-log-level string     debug | info | warn | error (default info)
//	-trace-out string     write collected spans as NDJSON on exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/benchfile"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/posterior"
)

// experiment is one runnable evaluation artifact.
type experiment struct {
	id    string
	title string
	run   func(c *ctx) error
}

// ctx carries shared experiment configuration.
type ctx struct {
	quick   bool
	csv     bool
	workers int
	seed    uint64
	backend posterior.Spec // posterior backend for the study experiments
	out     *os.File
	obs     *obs.Registry // nil-safe shared registry for every experiment
}

// newPool creates an engine pool instrumented into the run's registry.
func (c *ctx) newPool(workers int) *engine.Pool {
	p := engine.NewPool(workers)
	p.Instrument(c.obs)
	return p
}

// emit prints a finished table (and optionally its CSV form).
func (c *ctx) emit(t *bench.Table) error {
	if _, err := t.WriteTo(c.out); err != nil {
		return err
	}
	fmt.Fprintln(c.out)
	if c.csv {
		if err := t.WriteCSV(c.out); err != nil {
			return err
		}
		fmt.Fprintln(c.out)
	}
	return nil
}

func registry() []experiment {
	return []experiment{
		{"T1", "lattice-model manipulation speedup (SBGT vs serial baseline)", runT1},
		{"T2", "test-selection speedup (halving scan, SBGT vs serial baseline)", runT2},
		{"T3", "statistical-analysis speedup (Monte-Carlo study, parallel vs serial)", runT3},
		{"F1", "strong scaling of the update kernel (speedup & efficiency vs workers)", runF1},
		{"F2", "weak scaling of the update kernel (fixed states/worker)", runF2},
		{"F3", "surveillance operating characteristics vs prevalence", runF3},
		{"F4", "posterior-entropy convergence by selection strategy", runF4},
		{"F5", "look-ahead: stages vs tests trade-off", runF5},
		{"F6", "distributed (TCP executor) lattice kernels", runF6},
		{"F7", "population-scale campaign (cohort composition)", runF7},
		{"A1", "ablation: partition granularity", runA1},
		{"A3", "ablation: halving candidate set (prefix vs +local-search)", runA3},
		{"A4", "ablation: cohort assignment (sorted vs contiguous binning)", runA4},
		{"S1", "sbgt-serve loopback load (concurrent cohorts, exact p50/p99 latency)", runS1},
		{"S1R", "S1 workload with the observability layer on (recorder overhead)", runS1R},
		{"S1P", "S1 workload with the continuous profiler sampling (profiler overhead)", runS1P},
	}
}

func main() {
	var (
		expFlag  = flag.String("exp", "all", `experiment ids, comma-separated, or "all"`)
		quick    = flag.Bool("quick", false, "reduced problem sizes")
		csv      = flag.Bool("csv", false, "also emit CSV")
		workers  = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 1, "root seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		backend  = flag.String("backend", "dense", "posterior backend for the study experiments: dense | sparse | cluster")
		jsonOut  = flag.String("json", "", `write a JSON run report (wall times + metric snapshot) here; "-" = stdout`)
		baseline = flag.String("baseline", "", `write a schema-versioned bench file (for sbgt-benchdiff) here; "-" = stdout`)
	)
	obsFlags := obs.RegisterFlags(nil)
	flag.Parse()

	rt, err := obsFlags.Start("sbgt-bench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbgt-bench:", err)
		os.Exit(2)
	}
	defer rt.Close()

	exps := registry()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		fmt.Println("A2, A5: kernel ablations, run as go test ./internal/lattice -run '^$' -bench 'Fusion|NegMassCrossover|NegMassesTiling|Summary|Condition'")
		return
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		known := map[string]bool{}
		for _, e := range exps {
			known[e.id] = true
		}
		var unknown []string
		for id := range want {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			rt.Fatal(fmt.Errorf("unknown experiment(s): %s (use -list)", strings.Join(unknown, ", ")))
		}
	}

	kind, err := posterior.ParseKind(*backend)
	if err != nil {
		rt.Fatal(err)
	}
	c := &ctx{quick: *quick, csv: *csv, workers: *workers, seed: *seed, out: os.Stdout, obs: rt.Reg}
	// The study experiments replicate campaigns on single-worker models, so
	// the cluster backend gets single-worker local executors to match.
	c.backend = posterior.Spec{
		Kind:           kind,
		Eps:            1e-9,
		LocalExecutors: 2,
		ExecWorkers:    1,
		DialTimeout:    2 * time.Second,
		Obs:            rt.Reg,
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("sbgt-bench: %d workers, quick=%v, seed=%d, backend=%s\n\n", c.workers, c.quick, c.seed, kind)
	// The run report and the bench baseline are the same schema-versioned
	// artifact (benchfile.File); -json keeps its historical name.
	report := &benchfile.File{Workers: c.workers, Quick: c.quick, Seed: c.seed, Backend: string(kind)}
	for _, e := range exps {
		if *expFlag != "all" && !want[e.id] {
			continue
		}
		fmt.Printf("### %s: %s\n", e.id, e.title)
		start := time.Now()
		if err := e.run(c); err != nil {
			rt.Fatal(fmt.Errorf("%s: %v", e.id, err))
		}
		report.Experiments = append(report.Experiments, benchfile.Experiment{
			ID: e.id, Title: e.title, Seconds: time.Since(start).Seconds(),
		})
	}
	if *jsonOut != "" || *baseline != "" {
		report.Metrics = rt.Reg.Snapshot()
	}
	for _, path := range []string{*jsonOut, *baseline} {
		if path == "" {
			continue
		}
		if err := benchfile.Write(path, report); err != nil {
			rt.Fatal(err)
		}
	}
}

// sizes returns the lattice-size sweep for the speedup tables.
func (c *ctx) sizes() []int {
	if c.quick {
		return []int{12, 14, 16}
	}
	return []int{12, 14, 16, 18, 20}
}

// reps returns measurement repetitions.
func (c *ctx) reps() int {
	if c.quick {
		return 2
	}
	return 3
}
