package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// LoadConfig sizes a load run against a live sbgt-serve instance.
type LoadConfig struct {
	// Target is the server base URL, e.g. "http://127.0.0.1:8344".
	Target string
	// Cohorts is how many concurrent campaigns to run.
	Cohorts int
	// Subjects per cohort and their uniform prior risk.
	Subjects int
	Risk     float64
	// Workers bounds client-side concurrency. Zero means 64.
	Workers int
	// Seed makes the simulated populations and lab noise reproducible.
	Seed uint64
	// Client overrides the HTTP client (nil = http.DefaultClient with a
	// 30s timeout).
	Client *http.Client
	Log    *slog.Logger
}

// LoadReport is what a load run measured.
type LoadReport struct {
	Cohorts       int           `json:"cohorts"`
	Requests      int           `json:"requests"`
	ResultsSent   int           `json:"results_sent"`
	TestsServer   int           `json:"tests_server"`
	Misclassified int           `json:"misclassified"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	P50           time.Duration `json:"p50_ns"`
	P99           time.Duration `json:"p99_ns"`
}

// Throughput returns requests per second over the whole run.
func (r *LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// loadClient drives one cohort against the server and samples every
// request's latency.
type loadClient struct {
	base   string
	client *http.Client

	mu       sync.Mutex
	samples  []time.Duration
	requests int
}

func (lc *loadClient) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, lc.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := lc.client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	lc.mu.Lock()
	lc.samples = append(lc.samples, elapsed)
	lc.requests++
	lc.mu.Unlock()

	if resp.StatusCode == http.StatusTooManyRequests {
		// Honor the server's backpressure and retry once the window
		// passes — load generators that ignore Retry-After measure their
		// own retry storm, not the server.
		delay := RetryAfter(resp.Header)
		if delay == 0 {
			delay = time.Second
		}
		io.Copy(io.Discard, resp.Body) //lint:allow errcheck draining a body we are about to retry past
		time.Sleep(delay)
		return lc.do(method, path, in, out)
	}
	if resp.StatusCode >= 300 {
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) //lint:allow errcheck error body is best-effort context on an already-failed request
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// RunLoad drives cfg.Cohorts concurrent campaigns against a live server
// and reports exact (not sketched) latency percentiles. Every cohort is
// created before any is driven, so the server holds the full population
// at once — residency bounds and eviction are exercised, not bypassed.
// The oracle uses the Ideal response, so every classification is checked
// against the drawn ground truth, and the server's test counters are
// reconciled against the client's sent-result count: a lost or
// double-absorbed result shows up as a mismatch.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Cohorts <= 0 || cfg.Subjects <= 0 || cfg.Subjects > bitvec.MaxSubjects {
		return nil, fmt.Errorf("serve: bad load config: %d cohorts of %d subjects", cfg.Cohorts, cfg.Subjects)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.Risk <= 0 || cfg.Risk >= 1 {
		cfg.Risk = 0.05
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	log := obs.OrNop(cfg.Log)
	lc := &loadClient{base: cfg.Target, client: cfg.Client}
	risks := workload.UniformRisks(cfg.Subjects, cfg.Risk)

	type campaign struct {
		id    string
		truth bitvec.Mask
		sent  int
	}
	campaigns := make([]campaign, cfg.Cohorts)
	start := time.Now()

	// Phase 1: create every cohort so the whole population is live on the
	// server before any campaign advances.
	err := fanOut(cfg.Cohorts, cfg.Workers, func(i int) error {
		var out CreateCohortResponse
		err := lc.do("POST", "/v1/cohorts", CreateCohortRequest{
			Tenant:   fmt.Sprintf("t%02d", i%16),
			Risks:    risks,
			Response: ResponseSpec{Kind: "ideal"},
		}, &out)
		if err != nil {
			return fmt.Errorf("create cohort %d: %w", i, err)
		}
		campaigns[i].id = out.ID
		campaigns[i].truth = workload.Draw(risks, rng.New(cfg.Seed+uint64(i))).Truth
		return nil
	})
	if err != nil {
		return nil, err
	}
	log.Info("loadtest: cohorts created", "cohorts", cfg.Cohorts, "elapsed", time.Since(start))

	// Phase 2: drive every campaign to completion through the pools /
	// results loop.
	err = fanOut(cfg.Cohorts, cfg.Workers, func(i int) error {
		c := &campaigns[i]
		var pools PoolsResponse
		if err := lc.do("GET", "/v1/cohorts/"+c.id+"/pools", nil, &pools); err != nil {
			return err
		}
		for !pools.Done {
			req := SubmitResultsRequest{Results: make([]ResultJSON, len(pools.Pools))}
			for j, p := range pools.Pools {
				positive := c.truth.IntersectCount(bitvec.FromIndices(p.Subjects...)) > 0
				req.Results[j] = ResultJSON{Stage: p.Stage, Index: p.Index, Positive: positive}
			}
			c.sent += len(req.Results)
			pools = PoolsResponse{}
			if err := lc.do("POST", "/v1/cohorts/"+c.id+"/results", req, &pools); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: reconcile. The server's per-cohort test counter must equal
	// the client's sent-result count (zero lost, zero double-absorbed),
	// and with the Ideal response every classification must match truth.
	report := &LoadReport{Cohorts: cfg.Cohorts}
	err = fanOut(cfg.Cohorts, cfg.Workers, func(i int) error {
		c := &campaigns[i]
		var st StatusResponse
		if err := lc.do("GET", "/v1/cohorts/"+c.id, nil, &st); err != nil {
			return err
		}
		if !st.Done {
			return fmt.Errorf("cohort %s not done after drive", c.id)
		}
		if st.Tests != c.sent {
			return fmt.Errorf("cohort %s: server absorbed %d tests, client sent %d", c.id, st.Tests, c.sent)
		}
		mis := 0
		for _, cl := range st.Classifications {
			want := "negative"
			if c.truth.Has(cl.Subject) {
				want = "positive"
			}
			if cl.Status != want {
				mis++
			}
		}
		lc.mu.Lock()
		report.ResultsSent += c.sent
		report.TestsServer += st.Tests
		report.Misclassified += mis
		lc.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	report.Elapsed = time.Since(start)
	lc.mu.Lock()
	report.Requests = lc.requests
	samples := lc.samples
	lc.mu.Unlock()
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	report.P50 = percentile(samples, 0.50)
	report.P99 = percentile(samples, 0.99)
	log.Info("loadtest: complete",
		"cohorts", report.Cohorts, "requests", report.Requests,
		"p50", report.P50, "p99", report.P99,
		"misclassified", report.Misclassified, "elapsed", report.Elapsed)
	return report, nil
}

// fanOut runs job(0), …, job(n-1), at most workers at a time, and returns
// the first error a job reported once every job has finished.
func fanOut(n, workers int, job func(i int) error) error {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		//lint:allow concurrency load workers simulate independent HTTP clients, not lattice work; engine.Pool is the wrong substrate
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := job(i); err != nil {
				once.Do(func() { first = err })
			}
		}(i)
	}
	wg.Wait()
	return first
}

// percentile returns the exact q-quantile of sorted samples (nearest
// rank); load runs keep every sample, so no sketch error bars apply.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
