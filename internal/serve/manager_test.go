package serve

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// idealOutcome is the noiseless lab: positive iff the pool touches an
// infected subject.
func idealOutcome(truth, mask bitvec.Mask) dilution.Outcome {
	return dilution.Outcome{Positive: truth.IntersectCount(mask) > 0}
}

func newTestPool(t *testing.T) *engine.Pool {
	t.Helper()
	pool := engine.NewPool(2)
	t.Cleanup(pool.Close)
	return pool
}

func newTestManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool = newTestPool(t)
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() }) //lint:allow errcheck test teardown
	return m
}

// driveToCompletion answers every proposal from truth (Ideal response)
// until the cohort is done, returning how many results were sent.
func driveToCompletion(t *testing.T, m *Manager, id string, truth bitvec.Mask) int {
	t.Helper()
	sent := 0
	for {
		n := stage(t, m, id, truth, func() {})
		if n == 0 {
			return sent
		}
		sent += n
	}
}

func TestManagerLifecycle(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	risks := workload.UniformRisks(8, 0.1)
	truth := workload.Draw(risks, rng.New(9)).Truth

	id, err := m.Create(CreateCohortRequest{Tenant: "t1", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	sent := driveToCompletion(t, m, id, truth)

	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Tests != sent || st.Remaining != 0 {
		t.Fatalf("status = %+v after %d results", st, sent)
	}
	for _, c := range st.Classifications {
		want := "negative"
		if truth.Has(c.Subject) {
			want = "positive"
		}
		if c.Status != want {
			t.Errorf("subject %d classified %s, truth %s", c.Subject, c.Status, want)
		}
	}

	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Status(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("status after delete: %v", err)
	}
	if err := m.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// TestResidencySpans pins the forensic shape of residency churn: every
// evict-to-checkpoint and restore-on-demand is a span stamped with
// tenant, cohort and the reason it happened (lru/idle/drain for
// checkpoints, demand for restores), timing the checkpoint or load — so
// an anomaly dump shows whether churn drove a latency breach. With no
// request behind them (a direct Manager call, a drain) they are roots.
func TestResidencySpans(t *testing.T) {
	tracer := obs.NewTracer(256)
	m := newTestManager(t, ManagerConfig{MaxResident: 1, Tracer: tracer})
	risks := workload.UniformRisks(6, 0.1)

	a, err := m.Create(CreateCohortRequest{Tenant: "ta", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(CreateCohortRequest{Tenant: "tb", Risks: risks}); err != nil {
		t.Fatal(err)
	}
	// Touching a forces a restore (it was LRU-evicted when b arrived).
	if _, err := m.Pools(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}

	spans, _ := tracer.Snapshot()
	checkpoints := map[string]obs.SpanRecord{} // reason -> example span
	var restore *obs.SpanRecord
	for i, s := range spans {
		if s.ParentID != 0 && (s.Name == "checkpoint" || s.Name == "restore") {
			t.Errorf("%s span with no request behind it has a parent: %+v", s.Name, s)
		}
		switch s.Name {
		case "checkpoint":
			checkpoints[attr(s, "reason")] = s
		case "restore":
			restore = &spans[i]
		}
	}
	lru, ok := checkpoints["lru"]
	if !ok {
		t.Fatalf("no lru checkpoint span: %+v", checkpoints)
	}
	if attr(lru, "tenant") == "" || attr(lru, "cohort") == "" || lru.Duration <= 0 {
		t.Fatalf("lru checkpoint missing identity or duration: %+v", lru)
	}
	drain, ok := checkpoints["drain"]
	if !ok {
		t.Fatalf("no drain checkpoint span: %+v", checkpoints)
	}
	if drain.Duration <= 0 {
		t.Fatalf("drain checkpoint has no duration: %+v", drain)
	}
	if restore == nil {
		t.Fatal("no restore span")
	}
	if attr(*restore, "reason") != "demand" || attr(*restore, "tenant") != "ta" || attr(*restore, "cohort") != a || restore.Duration <= 0 {
		t.Fatalf("restore span = %+v", restore)
	}
}

func TestManagerEvictionRoundTrip(t *testing.T) {
	// The acceptance test for residency: with MaxResident 1, two cohorts
	// force each other to disk on every touch, so cohort A completes its
	// campaign across repeated evict/restore cycles while cohort B (on a
	// roomy manager) stays resident throughout. Both must classify
	// identically — eviction is a residency decision, not an inference
	// decision.
	pool := newTestPool(t)
	risks := workload.UniformRisks(10, 0.12)
	truth := workload.Draw(risks, rng.New(21)).Truth

	tight := newTestManager(t, ManagerConfig{Pool: pool, MaxResident: 1})
	roomy := newTestManager(t, ManagerConfig{Pool: pool, MaxResident: 1024})

	a, err := tight.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tight.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	r, err := roomy.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}

	// Alternate stages between a and b so each touch evicts the other.
	type drive struct {
		m    *Manager
		id   string
		done bool
		sent int
	}
	drives := []*drive{{m: tight, id: a}, {m: tight, id: b}, {m: roomy, id: r}}
	for remaining := len(drives); remaining > 0; {
		remaining = 0
		for _, d := range drives {
			if d.done {
				continue
			}
			pools, err := d.m.Pools(d.id)
			if err != nil {
				t.Fatalf("pools %s: %v", d.id, err)
			}
			if pools.Done {
				d.done = true
				continue
			}
			results := make([]core.TestResult, len(pools.Pools))
			for i, p := range pools.Pools {
				mask := bitvec.FromIndices(p.Subjects...)
				results[i] = core.TestResult{
					Stage:   p.Stage,
					Index:   p.Index,
					Outcome: idealOutcome(truth, mask),
				}
			}
			if err := d.m.Submit(d.id, results); err != nil {
				t.Fatalf("submit %s: %v", d.id, err)
			}
			d.sent += len(results)
			remaining++
		}
	}

	if tight.Resident() > 1 {
		t.Fatalf("tight manager holds %d resident posteriors, bound is 1", tight.Resident())
	}
	var got [3]*StatusResponse
	for i, d := range drives {
		st, err := d.m.Status(d.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tests != d.sent {
			t.Fatalf("cohort %s absorbed %d results, client sent %d", d.id, st.Tests, d.sent)
		}
		got[i] = st
	}
	for i := 0; i < 2; i++ {
		for j, c := range got[i].Classifications {
			if c.Status != got[2].Classifications[j].Status {
				t.Errorf("cohort %d subject %d: %s evicted vs %s resident",
					i, c.Subject, c.Status, got[2].Classifications[j].Status)
			}
		}
	}
}

func TestManagerAdmissionControl(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxCohorts: 2, MaxPerTenant: 1})
	risks := workload.UniformRisks(4, 0.1)

	if _, err := m.Create(CreateCohortRequest{Tenant: "alpha", Risks: risks}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(CreateCohortRequest{Tenant: "alpha", Risks: risks}); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("second alpha cohort: %v, want ErrTenantLimit", err)
	}
	if _, err := m.Create(CreateCohortRequest{Tenant: "beta", Risks: risks}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(CreateCohortRequest{Tenant: "gamma", Risks: risks}); !errors.Is(err, ErrBusy) {
		t.Fatalf("third cohort: %v, want ErrBusy", err)
	}
}

// TestManagerDeleteDuringCreate: a Delete that arrives while Create is
// still building the cohort's session must not leave a resident posterior
// behind. Both pool workers are parked, so Create's N=17 prior fill (past
// the engine's serial threshold) queues behind them after the cohort ID is
// assigned; an unblocked Delete has ample time to finish before the
// workers are released.
func TestManagerDeleteDuringCreate(t *testing.T) {
	pool := newTestPool(t)
	m := newTestManager(t, ManagerConfig{Pool: pool})
	parked, release, unparked := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(unparked)
		pool.Run(2, func(int) { parked <- struct{}{}; <-release })
	}()
	<-parked
	<-parked
	created := make(chan error, 1)
	go func() {
		_, err := m.Create(CreateCohortRequest{Risks: workload.UniformRisks(17, 0.05)})
		created <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); len(m.Cohorts()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the cohort was never published")
		}
	}
	deleted := make(chan error, 1)
	go func() { deleted <- m.Delete("c00000001") }()
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-unparked
	if err := <-created; err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := <-deleted; err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := m.Resident(); got != 0 {
		t.Fatalf("%d posteriors resident after the only cohort was deleted", got)
	}
	if ids := m.Cohorts(); len(ids) != 0 {
		t.Fatalf("cohorts %v left after delete", ids)
	}
}

func TestManagerIdleSweep(t *testing.T) {
	// A cohort untouched past IdleAfter is checkpointed by the background
	// sweep without any request traffic.
	m := newTestManager(t, ManagerConfig{IdleAfter: 50 * time.Millisecond})
	risks := workload.UniformRisks(6, 0.1)
	id, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Resident() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle cohort was never checkpointed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := loadsFromDisk(t, m.cfg.Dir, id); err != nil {
		t.Fatalf("checkpoint pair: %v", err)
	}
	// The cohort still answers — restored on demand.
	if _, err := m.Pools(id); err != nil {
		t.Fatalf("pools after idle eviction: %v", err)
	}
}

func TestManagerDrainAndRecover(t *testing.T) {
	pool := newTestPool(t)
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Pool: pool, Dir: dir})
	risks := workload.UniformRisks(8, 0.12)
	truth := workload.Draw(risks, rng.New(33)).Truth

	id, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	// Leave a proposal outstanding so drain must persist the pending
	// state, not just the posterior.
	pools, err := m.Pools(id)
	if err != nil || pools.Done {
		t.Fatalf("pools: %+v %v", pools, err)
	}

	if m.Ready() != nil {
		t.Fatal("manager not ready before drain")
	}
	n, err := m.Drain()
	if err != nil || n != 1 {
		t.Fatalf("drain checkpointed %d, err %v", n, err)
	}
	if m.Ready() == nil {
		t.Fatal("manager ready after drain")
	}
	if _, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create during drain: %v", err)
	}

	// A successor process picks the cohort up from the same directory and
	// serves the identical outstanding proposal.
	m2 := newTestManager(t, ManagerConfig{Pool: pool, Dir: dir})
	pools2, err := m2.Pools(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools2.Pools) != len(pools.Pools) {
		t.Fatalf("recovered proposal %+v, want %+v", pools2.Pools, pools.Pools)
	}
	for i := range pools.Pools {
		if pools2.Pools[i].Stage != pools.Pools[i].Stage ||
			pools2.Pools[i].Index != pools.Pools[i].Index {
			t.Fatalf("recovered proposal %+v, want %+v", pools2.Pools, pools.Pools)
		}
	}
	driveToCompletion(t, m2, id, truth)
	st, err := m2.Status(id)
	if err != nil || !st.Done {
		t.Fatalf("status after recovery: %+v %v", st, err)
	}
}

// TestManagerRestartOverTornSlot: a predecessor killed while it
// overwrote a cohort's checkpoint left the newest slot torn. The successor
// resumes the cohort from the slot before it and serves that generation's
// outstanding proposal.
func TestManagerRestartOverTornSlot(t *testing.T) {
	pool := newTestPool(t)
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Pool: pool, Dir: dir, MaxResident: 1})
	risks := workload.UniformRisks(8, 0.12)
	truth := workload.Draw(risks, rng.New(34)).Truth
	id, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Pools(id)
	if err != nil || first.Done {
		t.Fatalf("pools: %+v %v", first, err)
	}
	// Creating a second cohort evicts the first with its proposal open:
	// generation 1.
	other, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]core.TestResult, len(first.Pools))
	for i, p := range first.Pools {
		results[i] = core.TestResult{Stage: p.Stage, Index: p.Index, Outcome: idealOutcome(truth, bitvec.FromIndices(p.Subjects...))}
	}
	if err := m.Submit(id, results); err != nil {
		t.Fatal(err)
	}
	second, err := m.Pools(id)
	if err != nil || second.Done || second.Stage == first.Stage {
		t.Fatalf("second proposal: %+v %v", second, err)
	}
	// Touching the other cohort evicts this one again: generation 2.
	if _, err := m.Pools(other); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	ckpt := m.cohorts[id].ckpt
	m.mu.Unlock()
	if ckpt.Gen != 2 {
		t.Fatalf("cohort checkpointed %d times, want 2", ckpt.Gen)
	}
	newest := ckpt.SlotFile(ckpt.Slot)
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, ManagerConfig{Pool: pool, Dir: dir})
	got, err := m2.Pools(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stage != first.Stage || len(got.Pools) != len(first.Pools) {
		t.Fatalf("recovered proposal %+v, want generation 1's %+v", got, first)
	}
	for i := range first.Pools {
		if got.Pools[i].Index != first.Pools[i].Index || !slices.Equal(got.Pools[i].Subjects, first.Pools[i].Subjects) {
			t.Fatalf("recovered proposal %+v, want generation 1's %+v", got.Pools, first.Pools)
		}
	}
	driveToCompletion(t, m2, id, truth)
	if st, err := m2.Status(id); err != nil || !st.Done {
		t.Fatalf("status after recovery: %+v %v", st, err)
	}
}

// TestManagerWarnsOfUnpairedCheckpoints: a restart over a directory an
// earlier build left (a single <id>.ckpt and a temp file beside it)
// recovers no cohort from those files and names each in a warning.
func TestManagerWarnsOfUnpairedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"c7.ckpt", "c8.ckpt.tmp123", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var logged bytes.Buffer
	m := newTestManager(t, ManagerConfig{Dir: dir, Log: slog.New(slog.NewTextHandler(&logged, nil))})
	if n := len(m.cohorts); n != 0 {
		t.Fatalf("recovered %d cohorts from unpaired files", n)
	}
	for _, name := range []string{"c7.ckpt", "c8.ckpt.tmp123"} {
		if !strings.Contains(logged.String(), "level=WARN") || !strings.Contains(logged.String(), "file="+name) {
			t.Fatalf("no warning names %s:\n%s", name, logged.String())
		}
	}
	if strings.Contains(logged.String(), "notes.txt") {
		t.Fatalf("warned of a file that is no checkpoint:\n%s", logged.String())
	}
}

// loadsFromDisk loads cohort id's checkpoint pair in dir, as a restarted
// manager's first restore reads it, and reports whether a slot loaded.
func loadsFromDisk(t *testing.T, dir, id string) error {
	t.Helper()
	sess, err := core.LoadPair(&core.Pair{Path: filepath.Join(dir, id+".ckpt")}, newTestPool(t), nil, nil)
	if err != nil {
		return err
	}
	return sess.Close()
}

func TestManagerDuplicateSubmit(t *testing.T) {
	// The same batch absorbed twice would double-count evidence; the
	// second submission must fail without touching the posterior.
	m := newTestManager(t, ManagerConfig{})
	risks := workload.UniformRisks(10, 0.3)
	truth := workload.Draw(risks, rng.New(55)).Truth
	id, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	pools, err := m.Pools(id)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]core.TestResult, len(pools.Pools))
	for i, p := range pools.Pools {
		results[i] = core.TestResult{
			Stage:   p.Stage,
			Index:   p.Index,
			Outcome: idealOutcome(truth, bitvec.FromIndices(p.Subjects...)),
		}
	}
	if err := m.Submit(id, results); err != nil {
		t.Fatal(err)
	}
	tests, _ := m.Status(id)
	if tests.Done {
		t.Fatal("campaign finished after one stage; the duplicate-submit premise needs an open session")
	}
	if err := m.Submit(id, results); !errors.Is(err, core.ErrNoProposal) {
		t.Fatalf("duplicate submit: %v, want ErrNoProposal", err)
	}
	after, _ := m.Status(id)
	if tests.Tests != after.Tests {
		t.Fatalf("duplicate submit changed test count: %d -> %d", tests.Tests, after.Tests)
	}
}

// TestRestoredCohortStaysObserved: a cohort restored after an LRU
// eviction keeps reporting its posterior updates and stage phases to the
// manager's registry, as it did before its first checkpoint.
func TestRestoredCohortStaysObserved(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, ManagerConfig{MaxResident: 1, Obs: reg})
	risks := workload.UniformRisks(8, 0.1)
	truth := bitvec.FromIndices(2)
	// counts reads the restore counter, the dense posterior's update
	// histogram and the session's update-phase histogram.
	counts := func() (restores, updates, phases uint64) {
		snap := reg.Snapshot()
		for _, c := range snap.Counters {
			if c.Name == "sbgt_serve_restores_total" {
				restores = c.Value
			}
		}
		for _, h := range snap.Histograms {
			for _, l := range h.Labels {
				switch {
				case h.Name == "sbgt_posterior_op_seconds" && l.Key == "op" && l.Value == "update":
					updates += h.Count
				case h.Name == "sbgt_session_stage_seconds" && l.Key == "phase" && l.Value == "update":
					phases += h.Count
				}
			}
		}
		return restores, updates, phases
	}

	a, err := m.Create(CreateCohortRequest{Tenant: "ta", Risks: risks})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create(CreateCohortRequest{Tenant: "tb", Risks: risks}) // evicts a
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		// Pools restores a, evicting b; the Submit absorbs into the
		// restored session.
		pools, err := m.Pools(a)
		if err != nil {
			t.Fatal(err)
		}
		if pools.Done {
			t.Fatalf("round %d: cohort done before its absorb", round)
		}
		restores, updates, phases := counts()
		if want := uint64(2*round - 1); restores != want {
			t.Fatalf("round %d: %d restores, want %d", round, restores, want)
		}
		results := make([]core.TestResult, len(pools.Pools))
		for i, p := range pools.Pools {
			results[i] = core.TestResult{Stage: p.Stage, Index: p.Index, Outcome: idealOutcome(truth, bitvec.FromIndices(p.Subjects...))}
		}
		if err := m.Submit(a, results); err != nil {
			t.Fatal(err)
		}
		_, afterUpdates, afterPhases := counts()
		if afterUpdates < updates+uint64(len(results)) {
			t.Errorf("round %d: posterior updates %d → %d over %d results on a restored cohort", round, updates, afterUpdates, len(results))
		}
		if afterPhases != phases+1 {
			t.Errorf("round %d: update phase count %d → %d on a restored cohort, want one more", round, phases, afterPhases)
		}
		// Touching b restores it and evicts a again.
		if _, err := m.Pools(b); err != nil {
			t.Fatal(err)
		}
	}
}
