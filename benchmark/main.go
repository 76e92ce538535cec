// Command benchmark is the repository's benchmark: five fixed-work
// campaign workloads measured end to end, and traced layer by layer on a
// separate run. See README.md in this directory for the protocol, the
// metric tables and how to read them.
//
//	go run ./benchmark -workload dense_campaign
//	go run ./benchmark -workload serve_churn -trace 1 -trace-out spans.ndjson
//	go run ./benchmark -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is for
// people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 14, "how long to measure, after set-up and warm-up")
		trace     = flag.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write every span to this file as NDJSON")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two interleaved sets and compare them against the bounds")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(selfCheck(os.Stdout, *seconds))
	}
	rep, err := runOne(*name, *seed, *seconds, *trace != 0, *traceOut, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) (workloadInfo, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// runOne runs one workload once. GOMAXPROCS and the engine's workers
// are pinned to at most two: the reference host has two cores, and a
// number that scaled with the machine would not compare across hosts.
func runOne(name string, seed uint64, seconds float64, traced bool, traceOut string, log io.Writer) (*report, error) {
	info, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}
	runtime.GOMAXPROCS(workers)
	e := newEnv(seed, workers, scratchDir)
	if !traced {
		return runEndToEnd(name, info.build(false), e, seconds, log)
	}
	rec := newRecorder()
	rep, err := runTraced(name, info.build(false), e, seconds, rec, log)
	if err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := rec.writeTo(traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// result is the machine-readable last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name and unit, then any failed
// check, then the JSON line.
func printReport(w io.Writer, rep *report) error {
	table := endToEnd
	if rep.traced {
		table = perLayer
	}
	out := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range table {
		v := rep.values[m.name] // a layer that did nothing reads 0
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, v, m.unit)
	}
	if !rep.traced {
		fmt.Fprintln(w, "note: cpu_ms_per_cohort is the whole process, load generator included; on the serve workloads that is the two in-process clients")
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
