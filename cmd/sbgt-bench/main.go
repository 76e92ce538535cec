// Command sbgt-bench regenerates the paper-reproduction tables recorded in
// EXPERIMENTS.md: the three speedup tables (T1 lattice ops, T2 test
// selection, T3 statistical analyses), the scaling and accuracy figures
// (F1–F7) and the design ablations (A1, A3, A4). It gates nothing: whether
// a change made the system faster is answered by the repository benchmark
// (benchmark/README.md). The kernel ablations A2 and A5 are not experiments
// here: their reference arms are test oracles, compared by
// `go test ./internal/lattice -run '^$' -bench 'Fusion|NegMassCrossover|NegMassesTiling|Condition'`.
// See DESIGN.md §4 for the experiment index.
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
//
// Observability flags (shared across the sbgt commands):
//
//	-metrics-addr string  serve /metrics, /metrics.json (the registry
//	                      snapshot sbgt-top reads), /healthz, pprof
//	-log-level string     debug | info | warn | error (default info)
//	-trace-out string     write collected spans as NDJSON on exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
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
	out     io.Writer
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
	}
}

func main() {
	var (
		expFlag = flag.String("exp", "all", `experiment ids, comma-separated, or "all"`)
		quick   = flag.Bool("quick", false, "reduced problem sizes")
		csv     = flag.Bool("csv", false, "also emit CSV")
		workers = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 1, "root seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		backend = flag.String("backend", "dense", "posterior backend for the study experiments: dense | sparse | cluster")
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
		fmt.Println("A2, A5: kernel ablations, run as go test ./internal/lattice -run '^$' -bench 'Fusion|NegMassCrossover|NegMassesTiling|Condition'")
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
	for _, e := range exps {
		if *expFlag != "all" && !want[e.id] {
			continue
		}
		fmt.Printf("### %s: %s\n", e.id, e.title)
		if err := e.run(c); err != nil {
			rt.Fatal(fmt.Errorf("%s: %v", e.id, err))
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
