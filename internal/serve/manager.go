package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Manager errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound: the cohort ID does not exist (404).
	ErrNotFound = errors.New("serve: cohort not found")
	// ErrDraining: the server is shutting down and admits no work (503).
	ErrDraining = errors.New("serve: draining")
	// ErrBusy: the cohort admission bound is reached (429).
	ErrBusy = errors.New("serve: at capacity")
	// ErrTenantLimit: the per-tenant admission bound is reached (429).
	ErrTenantLimit = errors.New("serve: tenant at capacity")
)

// ManagerConfig sizes a session manager.
type ManagerConfig struct {
	// Pool is the shared compute substrate every resident posterior
	// updates on. Required.
	Pool *engine.Pool
	// Dir is where idle cohorts are checkpointed. Required.
	Dir string
	// MaxResident bounds how many posteriors are in memory at once, those
	// being restored or built included; admitting or restoring past the
	// bound evicts the least-recently-used cohort to disk first. Zero means
	// 256.
	MaxResident int
	// MaxCohorts bounds the total population, resident plus checkpointed.
	// Zero means 65536.
	MaxCohorts int
	// MaxPerTenant bounds one tenant's share of MaxCohorts. Zero means no
	// per-tenant bound.
	MaxPerTenant int
	// IdleAfter is how long a cohort may sit untouched before the
	// background sweep checkpoints it to disk. Zero means 5 minutes.
	IdleAfter time.Duration
	// Obs instruments the sessions and the manager itself; nil disables.
	// Tracer receives the restore and checkpoint spans no request caused
	// (idle sweep, drain, a direct Manager call) as roots; a served
	// request's spans hang under its http span instead. Sessions get no
	// tracer of their own. Log receives lifecycle events (nil = discard).
	Obs    *obs.Registry
	Tracer *obs.Tracer
	Log    *slog.Logger
	// Flight, when non-nil, receives absorb-failure anomaly triggers
	// tagged with tenant and cohort identity.
	Flight *obs.FlightRecorder
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// cohort is one campaign under management. mu serializes every session
// operation (propose, absorb, checkpoint, restore, close) so a request
// and an eviction never interleave inside the session; sess is nil while
// the cohort lives on disk.
type cohort struct {
	id     string
	tenant string

	mu       sync.Mutex
	sess     *core.Session
	ckpt     core.Pair // where the cohort is checkpointed, and its newest slot
	lastUsed time.Time
	deleted  bool
}

// Manager owns the cohort population: admission, residency, idle
// eviction, restore-on-demand, and drain. All methods are safe for
// concurrent use.
type Manager struct {
	cfg ManagerConfig

	mu        sync.Mutex
	cohorts   map[string]*cohort
	perTenant map[string]int
	seq       uint64
	draining  atomic.Bool
	resident  atomic.Int64

	stop chan struct{}
	done chan struct{}

	mEvicted  *obs.Counter
	mRestored *obs.Counter
	mResident *obs.Gauge
	mCohorts  *obs.Gauge
}

// NewManager starts a session manager (including its background idle
// sweep). Close or Drain stops it.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("serve: ManagerConfig.Pool is required")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: ManagerConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	if cfg.MaxResident <= 0 {
		cfg.MaxResident = 256
	}
	if cfg.MaxCohorts <= 0 {
		cfg.MaxCohorts = 65536
	}
	if cfg.IdleAfter <= 0 {
		cfg.IdleAfter = 5 * time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	cfg.Log = obs.OrNop(cfg.Log)
	m := &Manager{
		cfg:       cfg,
		cohorts:   make(map[string]*cohort),
		perTenant: make(map[string]int),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	// Re-register checkpoints a predecessor left behind (a drained server
	// writes every cohort to Dir): the cohorts come back lazily — each
	// stays on disk until its first request restores it. Tenant labels do
	// not survive a restart (they live in the manager, not the checkpoint);
	// recovered cohorts count against the global bound but not a tenant's.
	// A cohort is the pair of slot files <id>.ckpt.0 and <id>.ckpt.1; which
	// slot is newer is learnt at its first restore, which reads both. A
	// single <id>.ckpt or a temp file is an earlier build's, whose format
	// this one refuses: it is named in a warning and left alone.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scan checkpoint dir: %w", err)
	}
	for _, e := range entries {
		path, slot := core.PairPath(e.Name())
		id, ckpt := strings.CutSuffix(path, ".ckpt")
		if !slot && (strings.HasSuffix(e.Name(), ".ckpt") || strings.Contains(e.Name(), ".tmp")) {
			cfg.Log.Warn("serve: checkpoint dir holds a file that is not a slot of a checkpoint pair; its cohort is not recovered", "file", e.Name())
		}
		if !slot || !ckpt || e.IsDir() || m.cohorts[id] != nil {
			continue
		}
		m.cohorts[id] = &cohort{id: id, ckpt: m.pair(id), lastUsed: cfg.Clock()}
		var n uint64
		if _, err := fmt.Sscanf(id, "c%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
	}
	if len(m.cohorts) > 0 {
		cfg.Log.Info("serve: recovered checkpointed cohorts", "count", len(m.cohorts))
	}
	if reg := cfg.Obs; reg != nil {
		m.mEvicted = reg.Counter("sbgt_serve_evictions_total")
		m.mRestored = reg.Counter("sbgt_serve_restores_total")
		m.mResident = reg.Gauge("sbgt_serve_cohorts_resident")
		m.mCohorts = reg.Gauge("sbgt_serve_cohorts")
	}
	go m.sweep() //lint:allow concurrency the sweep is a timer loop, not lattice work; it exits via m.stop in Close and Drain
	return m, nil
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func gaugeAdd(g *obs.Gauge, d float64) {
	if g != nil {
		g.Add(d)
	}
}

// sweep periodically checkpoints cohorts idle past IdleAfter.
func (m *Manager) sweep() {
	defer close(m.done)
	tick := time.NewTicker(m.cfg.IdleAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			cutoff := m.cfg.Clock().Add(-m.cfg.IdleAfter)
			for _, c := range m.snapshot() {
				select {
				case <-m.stop:
					return
				default:
				}
				m.evictIfIdle(c, cutoff)
			}
		}
	}
}

// snapshot returns the current cohort list without holding the map lock
// during per-cohort work.
func (m *Manager) snapshot() []*cohort {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*cohort, 0, len(m.cohorts))
	for _, c := range m.cohorts {
		out = append(out, c)
	}
	return out
}

func (m *Manager) evictIfIdle(c *cohort, cutoff time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil || c.deleted || c.lastUsed.After(cutoff) {
		return
	}
	if err := m.checkpointLocked(c, "idle", nil); err != nil {
		m.cfg.Log.Error("serve: idle eviction failed", "cohort", c.id, "err", err)
	}
}

// span opens a span under the request that caused the work, or a root
// span on the manager's tracer when no request did.
func (m *Manager) span(parent *obs.Span, name string, attrs ...obs.Attr) *obs.Span {
	if parent != nil {
		return parent.Child(name, attrs...)
	}
	return m.cfg.Tracer.Start(name, attrs...)
}

// checkpointLocked writes c's session to disk and releases the resident
// posterior, timed as a checkpoint span under parent. Caller holds c.mu
// and c.sess != nil. reason says why the cohort is leaving residency —
// "idle" (sweep), "lru" (evicted to make room), or "drain" — and rides
// the span so an anomaly dump shows not just that residency churned but
// what drove it.
func (m *Manager) checkpointLocked(c *cohort, reason string, parent *obs.Span) (err error) {
	span := m.span(parent, "checkpoint", obs.A("reason", reason), obs.A("tenant", c.tenant), obs.A("cohort", c.id))
	defer func() { span.Fail(err); span.End() }()
	if err = c.sess.SavePair(&c.ckpt); err != nil {
		return err
	}
	if cerr := c.sess.Close(); cerr != nil {
		m.cfg.Log.Warn("serve: close after checkpoint", "cohort", c.id, "err", cerr)
	}
	c.sess = nil
	m.resident.Add(-1)
	gaugeAdd(m.mResident, -1)
	inc(m.mEvicted)
	m.cfg.Log.Debug("serve: cohort checkpointed", "cohort", c.id, "reason", reason)
	return nil
}

// pair is the checkpoint pair of cohort id, its newest slot not yet known.
func (m *Manager) pair(id string) core.Pair {
	return core.Pair{Path: filepath.Join(m.cfg.Dir, id+".ckpt")}
}

// restoreLocked loads c's session back from disk into the resident slot
// the caller has counted (admit), timed as a restore span under parent.
// Caller holds c.mu and c.sess == nil.
func (m *Manager) restoreLocked(c *cohort, parent *obs.Span) (err error) {
	span := m.span(parent, "restore", obs.A("reason", "demand"), obs.A("tenant", c.tenant), obs.A("cohort", c.id))
	defer func() { span.Fail(err); span.End() }()
	sess, err := core.LoadPair(&c.ckpt, m.cfg.Pool, nil, m.cfg.Obs)
	if err != nil {
		return fmt.Errorf("serve: restore %s: %w", c.id, err)
	}
	c.sess = sess
	inc(m.mRestored)
	m.cfg.Log.Debug("serve: cohort restored", "cohort", c.id)
	return nil
}

// admit counts one more resident posterior, one the caller is about to
// restore or build, evicting least-recently-used resident cohorts first
// until the count fits under MaxResident; the checkpoints hang under
// parent, the request whose admission or restore needs the room. So the
// evictee's lattice storage is the pool's spare by the time the restore or
// build asks for one, and MaxResident holds at every moment. While every
// counted slot is a restore or build still in flight there is no victim,
// and admit looks again every admitWait until one lands. A failed
// eviction fails the admission. Called outside any cohort lock: the
// victim search locks each cohort in turn.
func (m *Manager) admit(parent *obs.Span) error {
	for {
		n := m.resident.Load()
		if n < int64(m.cfg.MaxResident) {
			if m.resident.CompareAndSwap(n, n+1) {
				gaugeAdd(m.mResident, 1)
				return nil
			}
			continue
		}
		victim := m.lru()
		if victim == nil {
			time.Sleep(admitWait)
			continue
		}
		m.lockCohort(victim, parent)
		var err error
		if victim.sess != nil && !victim.deleted {
			if err = m.checkpointLocked(victim, "lru", parent); err != nil {
				m.cfg.Log.Error("serve: LRU eviction failed", "cohort", victim.id, "err", err)
			}
		}
		victim.mu.Unlock()
		if err != nil {
			return fmt.Errorf("serve: make room: evict %s: %w", victim.id, err)
		}
	}
}

// admitWait is how long admit waits before it looks for a victim again
// when every resident slot is a restore or build in flight: about one
// restore of a 2^16-state lattice.
const admitWait = 100 * time.Microsecond

// unadmit gives back a slot admit counted that no posterior filled.
func (m *Manager) unadmit() {
	m.resident.Add(-1)
	gaugeAdd(m.mResident, -1)
}

// lru returns the least recently used resident cohort, or nil when none is.
func (m *Manager) lru() *cohort {
	var victim *cohort
	var oldest time.Time
	for _, c := range m.snapshot() {
		c.mu.Lock()
		live := c.sess != nil && !c.deleted
		used := c.lastUsed
		c.mu.Unlock()
		if live && (victim == nil || used.Before(oldest)) {
			victim, oldest = c, used
		}
	}
	return victim
}

// lookup finds a cohort by ID.
func (m *Manager) lookup(id string) (*cohort, error) {
	m.mu.Lock()
	c, ok := m.cohorts[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

// lockCohort takes c.mu, timing the wait as a lock_wait span under
// parent.
func (m *Manager) lockCohort(c *cohort, parent *obs.Span) {
	wait := m.span(parent, "lock_wait")
	c.mu.Lock()
	wait.End()
}

// withSession runs fn with the cohort resident and its lock held,
// restoring from disk first when needed; the lock wait, the restore, the
// session's phase spans and any checkpoint it forces hang under parent.
// A cohort on disk is admitted first (admit) with its lock dropped —
// admit locks other cohorts, and this one, not resident, is never the
// victim — and restored once the lock is taken again, unless another
// request restored it meanwhile, which gives the slot back.
func (m *Manager) withSession(id string, parent *obs.Span, fn func(*core.Session) error) error {
	c, err := m.lookup(id)
	if err != nil {
		return err
	}
	m.lockCohort(c, parent)
	defer c.mu.Unlock()
	if c.deleted {
		return ErrNotFound
	}
	if c.sess == nil {
		c.mu.Unlock()
		err := m.admit(parent)
		m.lockCohort(c, parent)
		if err != nil {
			return err
		}
		switch {
		case c.deleted:
			m.unadmit()
			return ErrNotFound
		case c.sess != nil:
			m.unadmit()
		default:
			if err := m.restoreLocked(c, parent); err != nil {
				m.unadmit()
				return err
			}
		}
	}
	c.lastUsed = m.cfg.Clock()
	if parent != nil {
		sess := c.sess
		sess.SetRequestSpan(parent)
		defer sess.SetRequestSpan(nil)
	}
	return fn(c.sess)
}

// Create admits a new cohort and returns its ID.
func (m *Manager) Create(req CreateCohortRequest) (string, error) { return m.create(req, nil) }

func (m *Manager) create(req CreateCohortRequest, parent *obs.Span) (string, error) {
	if m.draining.Load() {
		return "", ErrDraining
	}
	resp, err := req.Response.Response()
	if err != nil {
		return "", err
	}

	// The admission bounds are checked before the resident slot is counted,
	// so a refused create evicts nothing, and again under the same lock as
	// the cohort is published.
	if err := m.admissible(req.Tenant); err != nil {
		return "", err
	}
	if err := m.admit(parent); err != nil {
		return "", err
	}
	m.mu.Lock()
	if err := m.admissibleLocked(req.Tenant); err != nil {
		m.mu.Unlock()
		m.unadmit()
		return "", err
	}
	m.seq++
	id := fmt.Sprintf("c%08d", m.seq)
	// The cohort is published locked and unlocked once its session is in
	// place: IDs are sequential, so a request, a delete or the idle sweep
	// may find it before the prior is built, and each must wait for it.
	c := &cohort{id: id, tenant: req.Tenant, ckpt: m.pair(id), lastUsed: m.cfg.Clock()}
	c.mu.Lock()
	m.cohorts[id] = c
	m.perTenant[req.Tenant]++
	m.mu.Unlock()

	sess, err := core.NewSession(m.cfg.Pool, core.Config{
		Risks:        req.Risks,
		Response:     resp,
		Lookahead:    req.Lookahead,
		PosThreshold: req.PosThreshold,
		NegThreshold: req.NegThreshold,
		MaxStages:    req.MaxStages,
		Obs:          m.cfg.Obs,
	})
	if err != nil {
		c.deleted = true
		c.mu.Unlock()
		m.unadmit()
		m.drop(c)
		return "", err
	}
	c.sess = sess
	gaugeAdd(m.mCohorts, 1)
	c.mu.Unlock()
	m.cfg.Log.Debug("serve: cohort created", "cohort", id, "tenant", req.Tenant, "subjects", len(req.Risks))
	return id, nil
}

// admissible reports whether a cohort of tenant may be admitted under
// MaxCohorts and MaxPerTenant.
func (m *Manager) admissible(tenant string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admissibleLocked(tenant)
}

// admissibleLocked is admissible with m.mu held.
func (m *Manager) admissibleLocked(tenant string) error {
	if len(m.cohorts) >= m.cfg.MaxCohorts {
		return ErrBusy
	}
	if m.cfg.MaxPerTenant > 0 && m.perTenant[tenant] >= m.cfg.MaxPerTenant {
		return fmt.Errorf("%w: tenant %q", ErrTenantLimit, tenant)
	}
	return nil
}

// drop removes a cohort from the maps (bookkeeping only).
func (m *Manager) drop(c *cohort) {
	m.mu.Lock()
	delete(m.cohorts, c.id)
	if m.perTenant[c.tenant] <= 1 {
		delete(m.perTenant, c.tenant)
	} else {
		m.perTenant[c.tenant]--
	}
	m.mu.Unlock()
}

// Pools returns the cohort's outstanding lab work, proposing a new stage
// when none is outstanding. Safe to call repeatedly: a proposal is
// re-served, not re-made.
func (m *Manager) Pools(id string) (*PoolsResponse, error) { return m.pools(id, nil) }

func (m *Manager) pools(id string, parent *obs.Span) (*PoolsResponse, error) {
	var out *PoolsResponse
	err := m.withSession(id, parent, func(s *core.Session) error {
		pools, err := s.ProposePools()
		if err != nil {
			return err
		}
		out = &PoolsResponse{ID: id, Done: s.Done(), Stage: s.Stage(), Pools: poolsJSON(pools)}
		return nil
	})
	return out, err
}

// Submit absorbs one stage of lab results. The batch must answer the
// outstanding proposal exactly; a rejected batch leaves the proposal
// open, and a duplicate submission fails with core.ErrNoProposal rather
// than double-counting evidence.
//
// Failure triage feeds the flight recorder: a duplicate submission
// (ErrNoProposal) and a rejected batch (proposal still outstanding) are
// client errors and stay out of the anomaly stream, but an absorb that
// consumed the proposal and then failed is an internal posterior fault —
// the cohort is wedged mid-stage — and triggers an anomaly auto-dump
// naming the tenant and cohort.
func (m *Manager) Submit(id string, results []core.TestResult) error {
	return m.submit(id, results, nil)
}

func (m *Manager) submit(id string, results []core.TestResult, parent *obs.Span) error {
	var tenant string
	if c, err := m.lookup(id); err == nil {
		tenant = c.tenant
	}
	return m.withSession(id, parent, func(s *core.Session) error {
		if err := s.AbsorbResults(results); err != nil {
			if !errors.Is(err, core.ErrNoProposal) && s.Outstanding() == nil && !s.Done() {
				m.cfg.Flight.TriggerAnomaly("absorb_failure",
					obs.A("tenant", tenant), obs.A("cohort", id), obs.A("err", err.Error()))
			}
			return err
		}
		return nil
	})
}

// Status reports a cohort's progress and classifications.
func (m *Manager) Status(id string) (*StatusResponse, error) { return m.status(id, nil) }

func (m *Manager) status(id string, parent *obs.Span) (*StatusResponse, error) {
	var out *StatusResponse
	err := m.withSession(id, parent, func(s *core.Session) error {
		out = &StatusResponse{
			ID:              id,
			Done:            s.Done(),
			Stage:           s.Stage(),
			Tests:           s.Tests(),
			Remaining:       s.Remaining(),
			Classifications: classificationsJSON(s.Classifications()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c, cerr := m.lookup(id); cerr == nil {
		out.Tenant = c.tenant
	}
	return out, err
}

// Delete closes a cohort and removes its checkpoint.
func (m *Manager) Delete(id string) error { return m.delete(id, nil) }

func (m *Manager) delete(id string, parent *obs.Span) error {
	c, err := m.lookup(id)
	if err != nil {
		return err
	}
	m.lockCohort(c, parent)
	if c.deleted {
		c.mu.Unlock()
		return ErrNotFound
	}
	c.deleted = true
	if c.sess != nil {
		if err := c.sess.Close(); err != nil {
			m.cfg.Log.Warn("serve: close on delete", "cohort", id, "err", err)
		}
		c.sess = nil
		m.resident.Add(-1)
		gaugeAdd(m.mResident, -1)
	}
	ckpt := c.ckpt
	c.mu.Unlock()
	if err := ckpt.Remove(); err != nil {
		m.cfg.Log.Warn("serve: remove checkpoint", "cohort", id, "err", err)
	}
	m.drop(c)
	gaugeAdd(m.mCohorts, -1)
	return nil
}

// Tenant reports which tenant owns the cohort ("" when unknown — e.g. a
// cohort recovered from a predecessor's checkpoint directory).
func (m *Manager) Tenant(id string) string {
	c, err := m.lookup(id)
	if err != nil {
		return ""
	}
	return c.tenant
}

// Ready reports whether the manager should receive traffic — the /readyz
// hook. It fails while draining.
func (m *Manager) Ready() error {
	if m.draining.Load() {
		return ErrDraining
	}
	return nil
}

// Drain stops admission, halts the idle sweep, and checkpoints every
// resident cohort to disk so a successor process can restore them. It
// returns how many cohorts were checkpointed. Idempotent.
func (m *Manager) Drain() (int, error) {
	if m.draining.Swap(true) {
		<-m.done
		return 0, nil
	}
	close(m.stop)
	<-m.done
	n := 0
	var first error
	for _, c := range m.snapshot() {
		c.mu.Lock()
		if c.sess != nil && !c.deleted {
			if err := m.checkpointLocked(c, "drain", nil); err != nil {
				m.cfg.Log.Error("serve: drain checkpoint failed", "cohort", c.id, "err", err)
				if first == nil {
					first = err
				}
			} else {
				n++
			}
		}
		c.mu.Unlock()
	}
	m.cfg.Log.Info("serve: drained", "checkpointed", n)
	return n, first
}

// Close releases the manager without checkpointing: the idle sweep stops
// and every resident session is closed. Use Drain first when state must
// survive. Idempotent.
func (m *Manager) Close() error {
	if !m.draining.Swap(true) {
		close(m.stop)
	}
	<-m.done
	for _, c := range m.snapshot() {
		c.mu.Lock()
		if c.sess != nil {
			c.sess.Close() //lint:allow errcheck teardown of a session we are abandoning
			c.sess = nil
			m.resident.Add(-1)
			gaugeAdd(m.mResident, -1)
		}
		c.mu.Unlock()
	}
	return nil
}

// Cohorts lists the managed cohort IDs in ID order — a diagnostic
// surface, not a paged API.
func (m *Manager) Cohorts() []string {
	cs := m.snapshot()
	sort.Slice(cs, func(i, j int) bool { return cs[i].id < cs[j].id })
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.id
	}
	return out
}

// Resident reports how many posteriors are currently in memory, counting
// those being restored or built; it never exceeds MaxResident.
func (m *Manager) Resident() int { return int(m.resident.Load()) }
