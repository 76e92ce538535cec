package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	sbgt "repro"
	"repro/internal/obs"
)

// Run protocol constants. A run sets up several times, runs
// warmupRounds untimed-for-metrics rounds, then timed rounds until the
// measurement budget is spent. Every round is the same seeded work.
const (
	// Set-up is repeated at least minSetups times and until setupBudget is
	// spent, up to maxSetups: the HTTP workloads set up in 10 ms and need
	// the repetitions, the dense campaign takes 0.4 s and needs no more.
	minSetups    = 5
	maxSetups    = 40
	setupBudget  = time.Second
	warmupRounds = 3
	minRounds    = 5
	// A traced run spends its budget on pairs of rounds, one untraced and
	// one traced, so the overhead of tracing is measured in the same run.
	// It warms up for one round only: its numbers have no bound to meet.
	minTracedPairs = 3
	minAccuracy    = 0.97
)

// env is what a workload is given to build itself.
type env struct {
	seed    uint64
	workers int
	// scratch is the directory the serve workloads keep checkpoints under.
	scratch string
	// reg, tracer and flight are the observability a production process
	// builds at start (obs.CLIFlags.Start does the same for every sbgt
	// command) and hands to every Obs, Tracer, Flight and Instrument hook
	// the system offers. Both kinds of run attach them, so the end-to-end
	// numbers include what the hooks cost in production, and the traced
	// run reads the registry's counters for the layers the benchmark cannot
	// wrap from outside.
	reg    *sbgt.Metrics
	tracer *sbgt.Tracer
	flight *obs.FlightRecorder
}

func newEnv(seed uint64, workers int, scratch string) *env {
	e := &env{seed: seed, workers: workers, scratch: scratch,
		reg: sbgt.NewMetrics(), tracer: sbgt.NewTracer(0), flight: obs.NewFlightRecorder(0)}
	e.tracer.SetDropCounter(e.reg.Counter("sbgt_obs_spans_dropped_total"))
	e.flight.Instrument(e.reg)
	return e
}

// workload is one of the five named scenarios.
type workload interface {
	// setup builds the inputs from the seed, starts whatever the scenario
	// needs (engine, executors, server, connections) and proves it works
	// by driving a probe to a checked result. It must be repeatable after
	// close.
	setup(e *env) error
	// round runs the scenario's fixed work once. rec is nil on untraced
	// rounds.
	round(rec *recorder) *roundResult
	// extras runs the traced run's additional passes (baselines, probes)
	// and adds their per-layer metrics to values, which already holds the
	// ones computed from the traced rounds.
	extras(rec *recorder, rounds []*roundResult, values map[string]float64, log io.Writer) error
	close() error
}

// roundResult is what one round measured.
type roundResult struct {
	counts
	wall   time.Duration
	cpu    time.Duration // getrusage user+sys over the round, whole process
	oracle time.Duration // simulated lab, outside every turn
	turns  []float64     // ms, one per operation
	// failure describes the first failed operation, for the report.
	failure string

	// HTTP workloads only, counted by the clients.
	requests, bytesOut, bytesIn int
	residentPeak                int // traced rounds only

	// Traced rounds only.
	spanBase, spanEnd int // the round's spans are rec.spans[spanBase:spanEnd]
	reg               regDelta
	mem               memDelta
}

// fail counts one failed operation and keeps the first one's reason.
func (r *roundResult) fail(err error) {
	r.Failed++
	if r.failure == "" {
		r.failure = err.Error()
	}
}

func (r *roundResult) merge(o *roundResult) {
	if r.failure == "" {
		r.failure = o.failure
	}
	r.Cohorts += o.Cohorts
	r.Subjects += o.Subjects
	r.Tests += o.Tests
	r.Stages += o.Stages
	r.Correct += o.Correct
	r.Turns += o.Turns
	r.Failed += o.Failed
	r.oracle += o.oracle
	r.turns = append(r.turns, o.turns...)
	r.requests += o.requests
	r.bytesOut += o.bytesOut
	r.bytesIn += o.bytesIn
	if o.residentPeak > r.residentPeak {
		r.residentPeak = o.residentPeak
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident high-water mark. It reads VmHWM
// and not getrusage's ru_maxrss: ru_maxrss survives exec, so under
// `go run` a small workload would report the go command's 25 MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// timedRound runs one round between an untimed GC and the clocks.
func timedRound(w workload, rec *recorder, round int, reg *sbgt.Metrics) *roundResult {
	runtime.GC()
	var base int
	var regBefore *obs.Snapshot
	var memBefore memSample
	if rec != nil {
		base = rec.setRound(round)
		regBefore = reg.Snapshot()
		memBefore = readMem()
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	res := w.round(rec)
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	if rec != nil {
		res.mem = readMem().since(memBefore)
		res.reg = regDelta{regBefore, reg.Snapshot()}
		res.spanBase = base
		res.spanEnd = rec.setRound(round)
	}
	return res
}

// report is a finished run.
type report struct {
	traced    bool
	attempted int
	failed    int
	problems  []string // every correctness check that did not hold
	values    map[string]float64
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// repeatSetup sets the workload up several times, closing it and
// collecting garbage between, and leaves the last one open. The
// reported set-up time is the fast-side quartile, like every other
// time: the first repetition pays process warm-up the others do not, and
// one number per run would be at the mercy of a single page-fault storm.
func repeatSetup(w workload, e *env) (seconds float64, err error) {
	var times []float64
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return 0, fmt.Errorf("close between set-ups: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fastQuartile(times, lowerBetter), nil
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(name string, w workload, e *env, seconds float64, log io.Writer) (*report, error) {
	setupS, err := repeatSetup(w, e)
	if err != nil {
		return nil, err
	}
	defer w.close() // covers the error returns; the success path closes explicitly below and reports

	var warm []*roundResult
	for i := 0; i < warmupRounds; i++ {
		warm = append(warm, timedRound(w, nil, -1, nil))
	}
	var rounds []*roundResult
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start).Seconds() < seconds {
		rounds = append(rounds, timedRound(w, nil, -1, nil))
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	rep := &report{values: map[string]float64{}}
	checkRounds(rep, append(append([]*roundResult(nil), warm...), rounds...))
	c := rounds[0].counts
	for _, r := range rounds {
		rep.attempted += r.Turns
		rep.failed += r.Failed
	}

	perRound := func(f func(*roundResult) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	cohorts := float64(c.Cohorts)
	rep.values["setup_s"] = setupS
	rep.values["cohorts_per_s"] = fastQuartile(perRound(func(r *roundResult) float64 { return cohorts / r.wall.Seconds() }), higherBetter)
	rep.values["turn_p50_ms"] = fastQuartile(perRound(func(r *roundResult) float64 { return percentile(r.turns, 0.50) }), lowerBetter)
	rep.values["turn_p95_ms"] = fastQuartile(perRound(func(r *roundResult) float64 { return percentile(r.turns, 0.95) }), lowerBetter)
	rep.values["cpu_ms_per_cohort"] = fastQuartile(perRound(func(r *roundResult) float64 { return r.cpu.Seconds() * 1e3 / cohorts }), lowerBetter)
	rep.values["peak_rss_mb"] = peakRSSMB()
	rep.values["tests_per_subject"] = float64(c.Tests) / float64(c.Subjects)
	rep.values["stages_per_cohort"] = float64(c.Stages) / cohorts
	rep.values["accuracy"] = float64(c.Correct) / float64(c.Subjects)
	rep.values["ok_share"] = 1 - float64(rep.failed)/float64(rep.attempted)

	walls := perRound(func(r *roundResult) float64 { return r.wall.Seconds() })
	fmt.Fprintf(log, "%s: %d timed rounds of %d cohorts and %d turns (%d turns timed); round wall median %.3f s, spread %.3f\n",
		name, len(rounds), c.Cohorts, c.Turns, rep.attempted, percentile(walls, 0.5), iqrShare(walls))
	fmt.Fprintf(log, "round walls in s, in order: %.3f\n", walls)
	return rep, nil
}

// checkRounds applies the correctness rules that hold for every
// workload: no failed operation, identical counts in every round, every
// cohort classified, and accuracy against the drawn truth.
func checkRounds(rep *report, all []*roundResult) {
	cs := make([]counts, len(all))
	for i, r := range all {
		cs[i] = r.counts
	}
	if err := sameCounts(cs); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	c := cs[0]
	if c.Failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d operations failed in round 0, first: %s", c.Failed, c.Turns, all[0].failure))
	}
	if c.Cohorts == 0 || c.Subjects == 0 {
		rep.problems = append(rep.problems, "a round classified no cohort")
		return
	}
	if acc := float64(c.Correct) / float64(c.Subjects); acc < minAccuracy {
		rep.problems = append(rep.problems, fmt.Sprintf("accuracy %.4f below %.2f", acc, minAccuracy))
	}
}

// runTraced measures the per-layer metrics: pairs of one untraced and
// one traced round, then the workload's extra passes.
func runTraced(name string, w workload, e *env, seconds float64, rec *recorder, log io.Writer) (*report, error) {
	t0 := time.Now()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close() // covers the error returns; the success path closes explicitly below and reports
	warm := timedRound(w, nil, -1, nil)
	warmupS := time.Since(t0).Seconds()

	var plain, traced []*roundResult
	start := time.Now()
	for len(traced) < minTracedPairs || time.Since(start).Seconds() < seconds {
		plain = append(plain, timedRound(w, nil, -1, nil))
		traced = append(traced, timedRound(w, rec, len(traced), e.reg))
	}

	rep := &report{traced: true, values: map[string]float64{}}
	all := append(append([]*roundResult{warm}, plain...), traced...)
	checkRounds(rep, all)
	for _, r := range traced {
		rep.attempted += r.Turns
		rep.failed += r.Failed
	}

	// Each traced round yields one value per layer metric; the run
	// reports the median of them, which one disturbed round cannot move.
	perRound := make([]map[string]float64, len(traced))
	for i, r := range traced {
		perRound[i] = layerMetrics(rec, r)
	}
	for _, m := range perLayer {
		var vs []float64
		for _, pr := range perRound {
			if v, ok := pr[m.name]; ok && !math.IsNaN(v) {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			rep.values[m.name] = percentile(vs, 0.5)
		}
	}

	wallOf := func(rs []*roundResult) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.wall.Seconds()
		}
		return out
	}
	plainWall := fastQuartile(wallOf(plain), lowerBetter)
	rep.values["bench.warmup_s"] = warmupS
	rep.values["bench.first_round_penalty"] = warm.wall.Seconds() / plainWall
	rep.values["bench.round_spread"] = iqrShare(wallOf(plain))
	var oracle, wall time.Duration
	for _, r := range plain {
		oracle += r.oracle
		wall += r.wall
	}
	rep.values["bench.oracle_share"] = oracle.Seconds() / wall.Seconds()
	rep.values["trace.overhead_share"] = fastQuartile(wallOf(traced), lowerBetter)/plainWall - 1

	if err := w.extras(rec, traced, rep.values, log); err != nil {
		return nil, fmt.Errorf("extra passes: %w", err)
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	fmt.Fprintf(log, "%s: %d traced + %d untraced rounds, %d spans kept\n", name, len(traced), len(plain), len(rec.spans))
	if s := rep.values["bench.round_spread"]; s > 0.15 {
		fmt.Fprintf(log, "warning: round times spread %.3f of their median (above 0.15): the host is noisy, trust the numbers less\n", s)
	}
	return rep, nil
}
