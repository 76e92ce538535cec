// Package profiler is the continuous-profiling subsystem: always-on,
// low-overhead capture of where a running sbgt process spends its time,
// wired into the same forensic chain as the flight recorder.
//
// Three capture paths feed one bounded on-disk bundle store:
//
//   - Background sampling: on a fixed interval the profiler freezes a
//     short CPU-profile window plus heap, goroutine, and mutex
//     snapshots. These are the "quiet baseline" an anomaly capture is
//     diffed against.
//   - Anomaly triggers: the profiler registers an OnDump hook on the
//     flight recorder, so every anomaly auto-dump (an SLO edge-trip, an
//     absorb failure, an explicit TriggerAnomaly) freezes a profile
//     bundle stamped with the dump's anomaly ID. One breach therefore
//     yields flight dump + trace + profiles under a single ID.
//   - Manual captures: CaptureNow, for tests and operator tooling.
//
// Every bundle is stamped with the build's git SHA, the capture reason,
// and — for anomaly captures — the tenant and trace identity of the
// most recent offending event, so a flame graph resolves back to the
// request that burned. The store mirrors the flight recorder's
// retention discipline: keep-last-K per capture class, and same-reason
// triggers inside a cooldown coalesce into the previous bundle's count
// instead of minting a new one.
//
// Nothing here sits on a request path: recording costs are paid by the
// background goroutine, and the only process-wide cost is the CPU
// profiling signal while a window is open.
package profiler

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Capture classes: the bounded label set profiler metrics use. The full
// free-form reason string lives in bundle metadata, never in a label —
// sbgt-metriclint enforces this set.
const (
	ClassSample  = "sample"  // periodic background capture
	ClassAnomaly = "anomaly" // flight-recorder anomaly trigger
	ClassManual  = "manual"  // CaptureNow
)

// CaptureClasses is the declared value set for the profiler's `class`
// label; anything outside it is a lint violation.
var CaptureClasses = []string{ClassSample, ClassAnomaly, ClassManual}

// Profile file names inside a bundle directory.
const (
	CPUProfile       = "cpu.pprof"
	HeapProfile      = "heap.pprof"
	GoroutineProfile = "goroutine.pprof"
	MutexProfile     = "mutex.pprof"
)

// MetaFile is the bundle metadata document name.
const MetaFile = "meta.json"

// BundleMeta describes one captured profile bundle — the meta.json
// document inside the bundle directory and the row /debug/profiles
// serves in its index.
type BundleMeta struct {
	ID        string        `json:"id"`
	Time      time.Time     `json:"t"`
	Reason    string        `json:"reason"`
	Class     string        `json:"class"`
	AnomalyID string        `json:"anomaly_id,omitempty"`
	GitSHA    string        `json:"git_sha,omitempty"`
	Tenant    string        `json:"tenant,omitempty"`
	TraceID   uint64        `json:"trace_id,omitempty"`
	Attrs     []obs.Attr    `json:"attrs,omitempty"`
	Coalesced uint64        `json:"coalesced,omitempty"` // same-reason triggers absorbed by this bundle
	CPUWindow time.Duration `json:"cpu_window_ns,omitempty"`
	CPUError  string        `json:"cpu_error,omitempty"` // e.g. another CPU profile was already running
	// Profiles maps profile file name to its size in bytes.
	Profiles map[string]int64 `json:"profiles"`
}

// Config sizes a Profiler.
type Config struct {
	// Dir is the on-disk bundle store. Required.
	Dir string
	// Interval is the background sampling period; <= 0 disables periodic
	// capture (anomaly and manual captures still work).
	Interval time.Duration
	// CPUWindow is how long each capture's CPU-profile window stays
	// open. Zero selects DefaultCPUWindow; negative disables CPU capture
	// (heap/goroutine/mutex snapshots only).
	CPUWindow time.Duration
	// KeepSamples bounds retained background bundles (default 4).
	KeepSamples int
	// KeepAnomalies bounds retained anomaly + manual bundles (default 8).
	KeepAnomalies int
	// Cooldown spaces same-reason captures; triggers inside it coalesce
	// into the previous bundle. Zero selects DefaultCooldown; negative
	// disables coalescing.
	Cooldown time.Duration
	// MutexFraction, when > 0, enables mutex-contention profiling at the
	// given sampling rate for the profiler's lifetime (restored on Close).
	MutexFraction int
	// Reg receives profiler metrics (nil = uninstrumented).
	Reg *obs.Registry
	// Flight, when non-nil, has an OnDump hook registered so anomaly
	// dumps trigger bundle captures stamped with their anomaly ID.
	Flight *obs.FlightRecorder
	// Log receives lifecycle events (nil = discard).
	Log *slog.Logger
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// DefaultCPUWindow is the per-capture CPU-profile window. Long enough
// for the 100 Hz profiler to see a loaded process, short enough that a
// capture finishes well inside one background interval.
const DefaultCPUWindow = time.Second

// DefaultCooldown spaces same-reason captures, mirroring the flight
// recorder's anomaly cooldown.
const DefaultCooldown = time.Minute

// DefaultInterval is the background sampling period commands use when
// the flag does not say otherwise.
const DefaultInterval = time.Minute

// cpuMu serializes CPU-profile windows process-wide: the Go runtime
// allows one CPU profile at a time, and two Profiler instances (or a
// -cpuprofile flag) must not fight over it mid-capture.
var cpuMu sync.Mutex

// Profiler owns the bundle store and the capture paths. All methods are
// safe for concurrent use; a nil *Profiler is valid and does nothing.
type Profiler struct {
	cfg    Config
	gitSHA string

	mu       sync.Mutex
	bundles  []BundleMeta // sorted by ID (capture order)
	seq      uint64
	lastFire map[string]time.Time

	capMu sync.Mutex // serializes whole-bundle captures

	anomCh  chan obs.AnomalyDump
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
	once    sync.Once

	prevMutexFraction int

	mCaptures  map[string]*obs.Counter
	mErrors    *obs.Counter
	mCoalesced *obs.Counter
	mBundles   *obs.Gauge
	mStore     *obs.Gauge
	mLatency   *obs.Histogram
}

// New builds a profiler over an on-disk store, re-indexing any bundles a
// predecessor process left behind. Call Start to begin background
// sampling; anomaly and manual captures work immediately.
func New(cfg Config) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profiler: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profiler: store dir: %w", err)
	}
	if cfg.CPUWindow == 0 {
		cfg.CPUWindow = DefaultCPUWindow
	}
	if cfg.KeepSamples <= 0 {
		cfg.KeepSamples = 4
	}
	if cfg.KeepAnomalies <= 0 {
		cfg.KeepAnomalies = 8
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	cfg.Log = obs.OrNop(cfg.Log)
	p := &Profiler{
		cfg:      cfg,
		gitSHA:   buildSHA(),
		lastFire: make(map[string]time.Time),
		anomCh:   make(chan obs.AnomalyDump, 8),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := p.scan(); err != nil {
		return nil, err
	}
	if reg := cfg.Reg; reg != nil {
		p.mCaptures = make(map[string]*obs.Counter, len(CaptureClasses))
		for _, class := range CaptureClasses {
			p.mCaptures[class] = reg.Counter("sbgt_obs_profiler_captures_total", obs.L("class", class))
		}
		p.mErrors = reg.Counter("sbgt_obs_profiler_capture_errors_total")
		p.mCoalesced = reg.Counter("sbgt_obs_profiler_coalesced_total")
		p.mBundles = reg.Gauge("sbgt_obs_profiler_bundles")
		p.mStore = reg.Gauge("sbgt_obs_profiler_store_bytes")
		p.mLatency = reg.Histogram("sbgt_obs_profiler_capture_seconds", obs.LatencyBuckets)
		p.publishGauges()
	}
	if cfg.MutexFraction > 0 {
		p.prevMutexFraction = setMutexFraction(cfg.MutexFraction)
	}
	if cfg.Flight != nil {
		cfg.Flight.OnDump(func(d obs.AnomalyDump) {
			// Called under the recorder's lock: hand the dump to the capture
			// goroutine. A full channel means captures are already backed up;
			// dropping the trigger (counted) beats blocking the recorder.
			select {
			case p.anomCh <- d:
			default:
				if p.mCoalesced != nil {
					p.mCoalesced.Inc()
				}
			}
		})
	}
	return p, nil
}

// buildSHA reads the VCS revision the binary was built from ("" when the
// build carries no VCS stamp, e.g. `go test` binaries).
func buildSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// scan re-indexes bundles left by a predecessor process and resumes the
// ID sequence past them.
func (p *Profiler) scan() error {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return fmt.Errorf("profiler: scan store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		var meta BundleMeta
		raw, err := os.ReadFile(filepath.Join(p.cfg.Dir, e.Name(), MetaFile))
		if err != nil || json.Unmarshal(raw, &meta) != nil || meta.ID != e.Name() {
			p.cfg.Log.Warn("profiler: skipping unreadable bundle", "dir", e.Name())
			continue
		}
		p.bundles = append(p.bundles, meta)
		var n uint64
		if _, err := fmt.Sscanf(meta.ID, "p%d", &n); err == nil && n > p.seq {
			p.seq = n
		}
	}
	sort.Slice(p.bundles, func(i, j int) bool { return p.bundles[i].ID < p.bundles[j].ID })
	if len(p.bundles) > 0 {
		p.cfg.Log.Info("profiler: recovered bundles", "count", len(p.bundles))
	}
	return nil
}

// Start launches the background loop: periodic sampling (when Interval
// is positive) and anomaly-triggered captures. Close stops it.
// Idempotent; a never-started profiler still closes cleanly.
func (p *Profiler) Start() {
	if p == nil || !p.started.CompareAndSwap(false, true) {
		return
	}
	go p.loop() //lint:allow concurrency the capture loop is a timer/trigger pump, not lattice work; it exits via p.stop in Close
}

func (p *Profiler) loop() {
	defer close(p.done)
	var tick <-chan time.Time
	if p.cfg.Interval > 0 {
		t := time.NewTicker(p.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-p.stop:
			return
		case d := <-p.anomCh:
			p.captureAnomaly(d)
		case <-tick:
			if _, _, err := p.Capture(ClassSample, ClassSample, "", nil); err != nil {
				p.cfg.Log.Warn("profiler: background capture failed", "err", err)
			}
		}
	}
}

// captureAnomaly freezes a bundle for one flight-recorder dump, stamping
// the dump's anomaly ID, its trigger attrs, and the tenant/trace of the
// most recent identifiable event leading up to it.
func (p *Profiler) captureAnomaly(d obs.AnomalyDump) {
	var tenant string
	var traceID uint64
	for i := len(d.Events) - 1; i >= 0; i-- {
		if tenant == "" {
			tenant = d.Events[i].Tenant
		}
		if traceID == 0 {
			traceID = d.Events[i].TraceID
		}
		if tenant != "" && traceID != 0 {
			break
		}
	}
	meta, captured, err := p.Capture(d.Reason, ClassAnomaly, d.ID, d.Attrs, withIdentity(tenant, traceID))
	switch {
	case err != nil:
		p.cfg.Log.Error("profiler: anomaly capture failed", "anomaly", d.ID, "reason", d.Reason, "err", err)
	case captured:
		p.cfg.Log.Info("profiler: anomaly profile bundle captured",
			"anomaly", d.ID, "bundle", meta.ID, "reason", d.Reason)
	}
}

// CaptureOption tweaks one capture.
type CaptureOption func(*BundleMeta)

// withIdentity stamps the offending tenant and trace onto the bundle.
func withIdentity(tenant string, traceID uint64) CaptureOption {
	return func(m *BundleMeta) {
		m.Tenant = tenant
		m.TraceID = traceID
	}
}

// CaptureNow synchronously captures a manual bundle — the operator/test
// entry point.
func (p *Profiler) CaptureNow(reason string, attrs ...obs.Attr) (*BundleMeta, error) {
	if p == nil {
		return nil, fmt.Errorf("profiler: not configured")
	}
	meta, _, err := p.Capture(reason, ClassManual, "", attrs)
	return meta, err
}

// Capture freezes one bundle: heap, goroutine, and mutex snapshots plus
// a CPU-profile window of the configured length. Same-reason captures
// inside the cooldown coalesce into the previous bundle (captured =
// false, its meta returned). class must be one of CaptureClasses.
func (p *Profiler) Capture(reason, class, anomalyID string, attrs []obs.Attr, opts ...CaptureOption) (*BundleMeta, bool, error) {
	if p == nil {
		return nil, false, fmt.Errorf("profiler: not configured")
	}
	if meta, coalesced := p.coalesce(reason); coalesced {
		return meta, false, nil
	}
	p.capMu.Lock()
	defer p.capMu.Unlock()

	start := time.Now()
	p.mu.Lock()
	p.seq++
	id := fmt.Sprintf("p%06d", p.seq)
	p.mu.Unlock()

	meta := BundleMeta{
		ID:        id,
		Time:      p.cfg.Clock(),
		Reason:    reason,
		Class:     class,
		AnomalyID: anomalyID,
		GitSHA:    p.gitSHA,
		Attrs:     attrs,
		Profiles:  map[string]int64{},
	}
	for _, opt := range opts {
		opt(&meta)
	}

	tmp, err := os.MkdirTemp(p.cfg.Dir, ".cap-*")
	if err != nil {
		return nil, false, p.fail(fmt.Errorf("profiler: capture dir: %w", err))
	}
	defer os.RemoveAll(tmp) // best-effort cleanup; on success the dir was renamed away already

	// Snapshot profiles first (cheap), then the CPU window (slow path).
	for name, lookup := range map[string]string{
		HeapProfile:      "heap",
		GoroutineProfile: "goroutine",
		MutexProfile:     "mutex",
	} {
		if err := writeLookup(filepath.Join(tmp, name), lookup); err != nil {
			return nil, false, p.fail(err)
		}
	}
	if p.cfg.CPUWindow > 0 {
		if err := p.captureCPU(filepath.Join(tmp, CPUProfile)); err != nil {
			// A CPU profile may already be running (e.g. the -cpuprofile
			// flag). The bundle is still useful; record why CPU is missing.
			meta.CPUError = err.Error()
		} else {
			meta.CPUWindow = p.cfg.CPUWindow
		}
	}

	// Stamp sizes, write meta, and publish the bundle atomically.
	entries, err := os.ReadDir(tmp)
	if err != nil {
		return nil, false, p.fail(fmt.Errorf("profiler: capture dir: %w", err))
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			meta.Profiles[e.Name()] = info.Size()
		}
	}
	raw, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return nil, false, p.fail(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, MetaFile), raw, 0o644); err != nil {
		return nil, false, p.fail(fmt.Errorf("profiler: write meta: %w", err))
	}
	if err := os.Rename(tmp, filepath.Join(p.cfg.Dir, id)); err != nil {
		return nil, false, p.fail(fmt.Errorf("profiler: publish bundle: %w", err))
	}

	p.mu.Lock()
	p.bundles = append(p.bundles, meta)
	p.lastFire[reason] = p.cfg.Clock()
	p.mu.Unlock()
	p.retain()
	if c := p.mCaptures[class]; c != nil {
		c.Inc()
	}
	if p.mLatency != nil {
		p.mLatency.Observe(time.Since(start).Seconds())
	}
	p.publishGauges()
	return &meta, true, nil
}

// coalesce reports whether a capture for reason falls inside the
// cooldown; when it does, the most recent same-reason bundle absorbs the
// trigger. Background samples are exempt: their ticker interval is
// already their rate limit, and coalescing them would silently degrade
// -profile-interval to the cooldown period.
func (p *Profiler) coalesce(reason string) (*BundleMeta, bool) {
	if p.cfg.Cooldown < 0 || reason == ClassSample {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	last, ok := p.lastFire[reason]
	if !ok || p.cfg.Clock().Sub(last) >= p.cfg.Cooldown {
		return nil, false
	}
	for i := len(p.bundles) - 1; i >= 0; i-- {
		if p.bundles[i].Reason == reason {
			p.bundles[i].Coalesced++
			meta := p.bundles[i]
			p.rewriteMeta(meta)
			if p.mCoalesced != nil {
				p.mCoalesced.Inc()
			}
			return &meta, true
		}
	}
	// Cooldown armed but the bundle was retained away: count it, capture
	// nothing (the window is still hot).
	if p.mCoalesced != nil {
		p.mCoalesced.Inc()
	}
	return nil, true
}

// rewriteMeta persists an updated meta document (coalesced count).
// Caller holds p.mu; best-effort.
func (p *Profiler) rewriteMeta(meta BundleMeta) {
	raw, err := json.MarshalIndent(&meta, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(p.cfg.Dir, meta.ID, MetaFile), raw, 0o644)
	}
	if err != nil {
		p.cfg.Log.Warn("profiler: meta rewrite failed", "bundle", meta.ID, "err", err)
	}
}

// captureCPU opens one CPU-profile window into path, interruptible by
// Close.
func (p *Profiler) captureCPU(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiler: cpu profile: %w", err)
	}
	cpuMu.Lock()
	if err := pprof.StartCPUProfile(f); err != nil {
		cpuMu.Unlock()
		f.Close()       //lint:allow errcheck bail-out path; the start error wins
		os.Remove(path) //lint:allow errcheck best-effort removal of the empty file
		return fmt.Errorf("profiler: cpu profile: %w", err)
	}
	select {
	case <-time.After(p.cfg.CPUWindow):
	case <-p.stop:
		// Closing mid-window: stop early so Close never waits a full window.
	}
	pprof.StopCPUProfile()
	cpuMu.Unlock()
	if err := f.Close(); err != nil {
		return fmt.Errorf("profiler: cpu profile: %w", err)
	}
	return nil
}

// writeLookup snapshots one runtime profile (heap forces a GC settle
// like the -memprofile flag does not need here: allocs vs heap — we use
// the live-heap view, debug 0, gzipped proto).
func writeLookup(path, name string) error {
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("profiler: unknown runtime profile %q", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiler: %s profile: %w", name, err)
	}
	err = prof.WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("profiler: %s profile: %w", name, err)
	}
	return nil
}

func (p *Profiler) fail(err error) error {
	if p.mErrors != nil {
		p.mErrors.Inc()
	}
	return err
}

// keepFor maps a capture class to its retention bound.
func (p *Profiler) keepFor(class string) int {
	if class == ClassSample {
		return p.cfg.KeepSamples
	}
	return p.cfg.KeepAnomalies
}

// retain prunes the store back under the per-class keep-last-K bounds.
func (p *Profiler) retain() {
	var evict []string
	p.mu.Lock()
	seen := map[string]int{}
	kept := make([]BundleMeta, 0, len(p.bundles))
	// Walk newest-first so the K most recent of each class survive.
	for i := len(p.bundles) - 1; i >= 0; i-- {
		b := p.bundles[i]
		seen[b.Class]++
		if seen[b.Class] > p.keepFor(b.Class) {
			evict = append(evict, b.ID)
		} else {
			kept = append(kept, b)
		}
	}
	// kept is newest-first; restore capture order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	p.bundles = kept
	p.mu.Unlock()
	for _, id := range evict {
		if err := os.RemoveAll(filepath.Join(p.cfg.Dir, id)); err != nil {
			p.cfg.Log.Warn("profiler: retention removal failed", "bundle", id, "err", err)
		}
	}
}

// publishGauges refreshes the bundle-count and store-size gauges.
func (p *Profiler) publishGauges() {
	if p.mBundles == nil {
		return
	}
	p.mu.Lock()
	n := len(p.bundles)
	var bytes int64
	for _, b := range p.bundles {
		for _, sz := range b.Profiles {
			bytes += sz
		}
	}
	p.mu.Unlock()
	p.mBundles.Set(float64(n))
	p.mStore.Set(float64(bytes))
}

// Bundles returns the current index, oldest first.
func (p *Profiler) Bundles() []BundleMeta {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]BundleMeta(nil), p.bundles...)
}

// Lookup returns one bundle's meta by ID.
func (p *Profiler) Lookup(id string) (*BundleMeta, bool) {
	if p == nil {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.bundles {
		if p.bundles[i].ID == id {
			meta := p.bundles[i]
			return &meta, true
		}
	}
	return nil, false
}

// Open returns a reader over one profile file of one bundle. The name
// must be listed in the bundle's meta (no path traversal).
func (p *Profiler) Open(id, name string) (io.ReadCloser, error) {
	meta, ok := p.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("profiler: no bundle %q", id)
	}
	if _, ok := meta.Profiles[name]; !ok {
		return nil, fmt.Errorf("profiler: bundle %q has no profile %q", id, name)
	}
	return os.Open(filepath.Join(p.cfg.Dir, id, name))
}

// Dir reports the store directory.
func (p *Profiler) Dir() string {
	if p == nil {
		return ""
	}
	return p.cfg.Dir
}

// setMutexFraction wraps runtime.SetMutexProfileFraction so the call
// site reads as intent (returns the previous rate).
func setMutexFraction(rate int) int {
	return runtime.SetMutexProfileFraction(rate)
}

// Close stops the background loop (interrupting any open CPU window) and
// restores the mutex-profile fraction. Idempotent and nil-safe.
func (p *Profiler) Close() error {
	if p == nil {
		return nil
	}
	p.once.Do(func() {
		close(p.stop)
		if p.started.Load() {
			<-p.done
		}
		if p.cfg.MutexFraction > 0 {
			setMutexFraction(p.prevMutexFraction)
		}
	})
	return nil
}
