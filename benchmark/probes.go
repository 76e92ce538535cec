package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	sbgt "repro"
	"repro/internal/core"
	"repro/internal/serve"
)

// The extra passes of a traced run: baselines and probes that give the
// layer numbers something to be read against. None of them runs on an
// end-to-end run.

// extras for the in-process campaigns. On the dense backend: the
// bandwidth ceiling the update kernel is read against. On the cluster
// backend: a sample of the cohorts on the dense backend, the base of
// cluster.vs_dense_ratio.
func (c *campaign) extras(rec *recorder, rounds []*roundResult, values map[string]float64, log io.Writer) error {
	if c.clusterExec == 0 {
		gbps := triadGBps(c.triadCap, log)
		values["mem.triad_gbps"] = gbps
		if gbps > 0 {
			values["lattice.update_roofline_share"] = values["lattice.update_gbps_computed"] / gbps
		}
		return nil
	}
	// Four cohorts spread evenly over the population, lightest to heaviest.
	var sample []int
	for k := 0; k < 4; k++ {
		sample = append(sample, k*len(c.cohorts)/4)
	}
	wall := func(b sbgt.Backend) (float64, error) {
		var best float64
		for rep := 0; rep < 3; rep++ {
			var rr roundResult
			t0 := time.Now()
			for _, i := range sample {
				c.drive(i, b, &rr, nil)
			}
			d := time.Since(t0).Seconds()
			if rr.Failed > 0 {
				return 0, fmt.Errorf("%s", rr.failure)
			}
			if rep == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	onCluster, err := wall(c.backend)
	if err != nil {
		return err
	}
	onDense, err := wall(c.dense())
	if err != nil {
		return err
	}
	values["cluster.vs_dense_ratio"] = onCluster / onDense
	return nil
}

// triadGBps measures sustainable memory bandwidth with a single-threaded
// STREAM triad, a[i] = b[i] + s*c[i], over three arrays each at least
// four times the last-level cache so no pass is served from it. It
// counts 24 bytes an element (two reads and a write; the write-allocate
// read is not counted, as STREAM does not) and returns the best of three
// passes. limit caps one array's bytes: 1 GiB in the benchmark, small in
// the smoke test, which checks the plumbing and not the number.
func triadGBps(limit int64, log io.Writer) float64 {
	llc := lastLevelCacheBytes()
	size := 4 * llc
	if size < 256<<20 {
		size = 256 << 20
	}
	if size > limit {
		size = limit
	}
	// Never take more than three eighths of what the host says is free: a
	// probe must not be what gets the run killed.
	if avail := memAvailableBytes(); avail > 0 && 3*size > avail*3/8 {
		size = avail / 8
	}
	n := int(size / 8)
	fmt.Fprintf(log, "roofline probe: last-level cache %d MB, three arrays of %d MB each\n", llc>>20, size>>20)
	if n < 1<<16 {
		return 0
	}
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	var best float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		triad(a, b, c, 3)
		if gbps := 24 * float64(n) / float64(time.Since(t0).Nanoseconds()); gbps > best {
			best = gbps
		}
	}
	if a[n/2] != 7 { //lint:allow floats 1+3*2 is exact; the read keeps the loop from being optimised away
		return 0
	}
	return best
}

func triad(a, b, c []float64, s float64) {
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}

// lastLevelCacheBytes reads the largest cache cpu0 reports, or 32 MB
// when sysfs does not say.
func lastLevelCacheBytes() int64 {
	var best int64
	for idx := 0; idx < 8; idx++ {
		raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(idx) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		best = 32 << 20
	}
	return best
}

func memAvailableBytes() int64 {
	raw, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "MemAvailable:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}

// extras for the HTTP workloads: a second pass that drives the manager
// directly with the same cohorts in the same round-robin order, so the
// handler's time has a base, and on serve_churn the checkpoint codec on
// its own.
func (s *served) extras(rec *recorder, rounds []*roundResult, values map[string]float64, log io.Writer) error {
	ops, err := s.managerPass()
	if err != nil {
		return fmt.Errorf("manager pass: %w", err)
	}
	mgr := percentile(ops, 0.5)
	values["serve.manager_ms_p50"] = mgr
	if h := values["serve.handler_ms_p50"]; h > 0 {
		values["serve.http_json_share"] = 1 - mgr/h
	}
	if s.maxResident >= s.window*serveClients {
		return nil // nothing is ever checkpointed on this workload
	}
	return s.checkpointProbe(values)
}

// managerPass runs one round's cohorts, with every check a round
// applies, against the manager with no HTTP in between, and returns the
// time of every call that stands for a request, in ms.
func (s *served) managerPass() ([]float64, error) {
	api := &managerAPI{mgr: s.mgr}
	c := &client{s: s, api: api, rr: &roundResult{}}
	c.run(0, 1, s.window*serveClients)
	if c.rr.Failed > 0 {
		return nil, fmt.Errorf("%s", c.rr.failure)
	}
	return api.ops, nil
}

// managerAPI makes the calls on the manager directly, timing each. A
// results call is Submit then Pools, as the handler does it.
type managerAPI struct {
	mgr *serve.Manager
	ops []float64
}

func (a *managerAPI) timed(t0 time.Time) { a.ops = append(a.ops, float64(time.Since(t0))/1e6) }

func (a *managerAPI) create(req serve.CreateCohortRequest) (string, error) {
	defer a.timed(time.Now())
	return a.mgr.Create(req)
}

func (a *managerAPI) pools(id string) (*serve.PoolsResponse, error) {
	defer a.timed(time.Now())
	return a.mgr.Pools(id)
}

func (a *managerAPI) results(id string, req serve.SubmitResultsRequest) (*serve.PoolsResponse, error) {
	results := make([]core.TestResult, len(req.Results))
	for i, r := range req.Results {
		results[i] = core.TestResult{Stage: r.Stage, Index: r.Index, Outcome: sbgt.Outcome{Positive: r.Positive, Ct: r.Ct}}
	}
	defer a.timed(time.Now())
	if err := a.mgr.Submit(id, results); err != nil {
		return nil, err
	}
	return a.mgr.Pools(id)
}

func (a *managerAPI) status(id string) (*serve.StatusResponse, error) {
	defer a.timed(time.Now())
	return a.mgr.Status(id)
}

func (a *managerAPI) remove(id string) error {
	defer a.timed(time.Now())
	return a.mgr.Delete(id)
}

// checkpointProbe saves and loads one mid-campaign session of this
// workload's size through memory: the codec's cost without the file
// system's.
func (s *served) checkpointProbe(values map[string]float64) error {
	eng := sbgt.NewEngine(s.e.workers)
	defer eng.Close()
	in := &s.cohorts[len(s.cohorts)/2]
	sess, err := eng.NewSession(sbgt.Config{Risks: in.risks, Response: assay()})
	if err != nil {
		return err
	}
	defer sess.Close() // a dense session's Close cannot fail
	lab := in.oracle()
	for stage := 0; stage < 2 && !sess.Done(); stage++ {
		if err := sess.Step(lab.Test); err != nil {
			return err
		}
	}
	var saves, loads []float64
	var buf bytes.Buffer
	for i := 0; i < 21; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := sbgt.SaveSession(&buf, sess); err != nil {
			return err
		}
		saves = append(saves, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		back, err := eng.LoadSession(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			return err
		}
		loads = append(loads, float64(time.Since(t0))/1e6)
		if back.Remaining() != sess.Remaining() || back.Tests() != sess.Tests() {
			return fmt.Errorf("checkpoint round trip: %d remaining and %d tests became %d and %d",
				sess.Remaining(), sess.Tests(), back.Remaining(), back.Tests())
		}
		if err := back.Close(); err != nil {
			return err
		}
	}
	save := percentile(saves, 0.5)
	values["latticeio.save_ms_p50"] = save
	values["latticeio.load_ms_p50"] = percentile(loads, 0.5)
	values["latticeio.checkpoint_bytes"] = float64(buf.Len())
	values["latticeio.save_mbps"] = float64(buf.Len()) / 1e6 / (save / 1e3)
	return nil
}
