package profiler

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// testProfiler builds a profiler over a temp store with a short CPU
// window and no background ticker — captures are driven explicitly.
func testProfiler(t *testing.T, mut func(*Config)) *Profiler {
	t.Helper()
	cfg := Config{
		Dir:       t.TempDir(),
		CPUWindow: 20 * time.Millisecond,
		Cooldown:  -1, // tests opt in to coalescing explicitly
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestCaptureNowProducesBundle(t *testing.T) {
	reg := obs.NewRegistry()
	p := testProfiler(t, func(c *Config) { c.Reg = reg })
	meta, err := p.CaptureNow("test-capture", obs.A("k", "v"))
	if err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	if meta.ID != "p000001" || meta.Class != ClassManual || meta.Reason != "test-capture" {
		t.Fatalf("meta = %+v", meta)
	}
	// Every snapshot profile plus the CPU window must be on disk and
	// listed in meta with its real size.
	for _, name := range []string{CPUProfile, HeapProfile, GoroutineProfile, MutexProfile} {
		sz, ok := meta.Profiles[name]
		if !ok {
			t.Fatalf("meta lists no %s: %+v", name, meta.Profiles)
		}
		info, err := os.Stat(filepath.Join(p.Dir(), meta.ID, name))
		if err != nil {
			t.Fatalf("stat %s: %v", name, err)
		}
		if info.Size() != sz {
			t.Fatalf("%s: meta size %d != disk size %d", name, sz, info.Size())
		}
	}
	// The goroutine profile must be non-empty and parseable — the e2e
	// "bundle is real" assertion, in unit form.
	f, err := p.Open(meta.ID, GoroutineProfile)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	prof, err := ParseProfile(f)
	if err != nil {
		t.Fatalf("ParseProfile(goroutine): %v", err)
	}
	if len(prof.Samples) == 0 {
		t.Fatal("captured goroutine profile has no samples")
	}
}

func TestCaptureRetention(t *testing.T) {
	p := testProfiler(t, func(c *Config) {
		c.KeepSamples = 2
		c.KeepAnomalies = 2
		c.CPUWindow = -1 // snapshots only: retention does not need CPU windows
	})
	for i := 0; i < 4; i++ {
		if _, _, err := p.Capture("bg", ClassSample, "", nil); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	if _, _, err := p.Capture("manual", ClassManual, "", nil); err != nil {
		t.Fatalf("manual capture: %v", err)
	}
	bundles := p.Bundles()
	counts := map[string]int{}
	for _, b := range bundles {
		counts[b.Class]++
	}
	if counts[ClassSample] != 2 || counts[ClassManual] != 1 {
		t.Fatalf("retained classes = %v, want 2 samples + 1 manual", counts)
	}
	// Evicted bundle dirs are gone from disk; retained ones remain.
	entries, err := os.ReadDir(p.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(bundles) {
		t.Fatalf("disk has %d entries, index has %d", len(entries), len(bundles))
	}
	// Newest survive: p000003, p000004 (samples) and p000005 (manual).
	if bundles[0].ID != "p000003" || bundles[len(bundles)-1].ID != "p000005" {
		t.Fatalf("retained = %+v", bundles)
	}
}

func TestCaptureCoalescing(t *testing.T) {
	now := time.Unix(1000, 0)
	reg := obs.NewRegistry()
	p := testProfiler(t, func(c *Config) {
		c.Cooldown = time.Minute
		c.CPUWindow = -1
		c.Reg = reg
		c.Clock = func() time.Time { return now }
	})
	m1, captured, err := p.Capture("slo:p99", ClassAnomaly, "a000001", nil)
	if err != nil || !captured {
		t.Fatalf("first capture: %v captured=%v", err, captured)
	}
	// Same reason inside the cooldown: coalesced into m1, no new bundle.
	now = now.Add(10 * time.Second)
	m2, captured, err := p.Capture("slo:p99", ClassAnomaly, "a000002", nil)
	if err != nil {
		t.Fatalf("second capture: %v", err)
	}
	if captured || m2 == nil || m2.ID != m1.ID || m2.Coalesced != 1 {
		t.Fatalf("coalesce: captured=%v meta=%+v", captured, m2)
	}
	// The coalesced count is persisted into the bundle's meta.json.
	raw, err := os.ReadFile(filepath.Join(p.Dir(), m1.ID, MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk BundleMeta
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Coalesced != 1 {
		t.Fatalf("on-disk coalesced = %d, want 1", onDisk.Coalesced)
	}
	// A different reason captures immediately.
	if _, captured, err = p.Capture("slo:errors", ClassAnomaly, "a000003", nil); err != nil || !captured {
		t.Fatalf("different-reason capture: %v captured=%v", err, captured)
	}
	// Past the cooldown the original reason captures again.
	now = now.Add(2 * time.Minute)
	if _, captured, err = p.Capture("slo:p99", ClassAnomaly, "a000004", nil); err != nil || !captured {
		t.Fatalf("post-cooldown capture: %v captured=%v", err, captured)
	}
}

func TestAnomalyHookCapturesBundle(t *testing.T) {
	flight := obs.NewFlightRecorder(64)
	flight.SetCooldown(0)
	p := testProfiler(t, func(c *Config) {
		c.Flight = flight
		c.CPUWindow = -1
	})
	p.Start()
	flight.Scope("acme", "c1").Event(obs.Event{Kind: "request", TraceID: 42})
	if !flight.TriggerAnomaly("slo:test-breach", obs.A("objective", "p99")) {
		t.Fatal("TriggerAnomaly did not dump")
	}
	dumps := flight.Anomalies()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d", len(dumps))
	}
	// The capture is asynchronous (channel hand-off); poll briefly.
	var bundle *BundleMeta
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, b := range p.Bundles() {
			if b.AnomalyID == dumps[0].ID {
				bundle = &b
			}
		}
		if bundle != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if bundle == nil {
		t.Fatalf("no bundle captured for anomaly %s; bundles=%+v", dumps[0].ID, p.Bundles())
	}
	if bundle.Class != ClassAnomaly || bundle.Reason != "slo:test-breach" {
		t.Fatalf("bundle = %+v", bundle)
	}
	// The offending identity from the flight events is stamped on.
	if bundle.Tenant != "acme" || bundle.TraceID != 42 {
		t.Fatalf("bundle identity = tenant %q trace %d, want acme/42", bundle.Tenant, bundle.TraceID)
	}
}

func TestBackgroundSampling(t *testing.T) {
	p := testProfiler(t, func(c *Config) {
		c.Interval = 20 * time.Millisecond
		c.CPUWindow = -1
	})
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(p.Bundles()) == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	bundles := p.Bundles()
	if len(bundles) == 0 {
		t.Fatal("background loop captured nothing")
	}
	if bundles[0].Class != ClassSample {
		t.Fatalf("bundle = %+v", bundles[0])
	}
}

func TestScanRecoversBundles(t *testing.T) {
	dir := t.TempDir()
	p1, err := New(Config{Dir: dir, CPUWindow: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p1.Capture("before-restart", ClassManual, "", nil); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	// A second profiler over the same store re-indexes and resumes the
	// sequence past the recovered bundle.
	p2, err := New(Config{Dir: dir, CPUWindow: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Bundles(); len(got) != 1 || got[0].ID != "p000001" || got[0].Reason != "before-restart" {
		t.Fatalf("recovered = %+v", got)
	}
	meta, _, err := p2.Capture("after-restart", ClassManual, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "p000002" {
		t.Fatalf("sequence did not resume: %+v", meta)
	}
}

func TestHandlerRoutes(t *testing.T) {
	p := testProfiler(t, func(c *Config) { c.CPUWindow = -1 })
	m1, _, err := p.Capture("r1", ClassManual, "a000007", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Capture("r2", ClassManual, "", nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.StripPrefix("/debug/profiles", p.Handler()))
	defer srv.Close()

	// Index lists both bundles.
	var idx IndexDoc
	if err := getJSON(http.DefaultClient, srv.URL+"/debug/profiles", &idx); err != nil {
		t.Fatalf("index: %v", err)
	}
	if len(idx.Bundles) != 2 {
		t.Fatalf("index = %+v", idx)
	}
	// ?anomaly= filters to the matching bundle.
	if err := getJSON(http.DefaultClient, srv.URL+"/debug/profiles?anomaly=a000007", &idx); err != nil {
		t.Fatalf("filtered index: %v", err)
	}
	if len(idx.Bundles) != 1 || idx.Bundles[0].ID != m1.ID {
		t.Fatalf("filtered index = %+v", idx)
	}
	// Meta route.
	var meta BundleMeta
	if err := getJSON(http.DefaultClient, srv.URL+"/debug/profiles/"+m1.ID, &meta); err != nil {
		t.Fatalf("meta: %v", err)
	}
	if meta.Reason != "r1" {
		t.Fatalf("meta = %+v", meta)
	}
	// Profile bytes parse.
	resp, err := http.Get(srv.URL + "/debug/profiles/" + m1.ID + "/" + GoroutineProfile)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile GET = %s", resp.Status)
	}
	if _, err := ParseProfile(resp.Body); err != nil {
		t.Fatalf("served profile does not parse: %v", err)
	}
	// Unknown bundle and traversal paths 404.
	for _, path := range []string{"/debug/profiles/p999999", "/debug/profiles/" + m1.ID + "/" + MetaFile + "x", "/debug/profiles/../../etc/passwd"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("GET %s = 200, want error", path)
		}
	}
}

func TestHarvestPullsBundles(t *testing.T) {
	p := testProfiler(t, func(c *Config) { c.CPUWindow = -1 })
	m1, _, err := p.Capture("remote-capture", ClassManual, "a000003", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.StripPrefix("/debug/profiles", p.Handler()))
	defer srv.Close()

	dest := t.TempDir()
	got, err := Harvest(nil, srv.URL, dest)
	if err != nil {
		t.Fatalf("Harvest: %v", err)
	}
	if len(got) != 1 || got[0].ID != m1.ID {
		t.Fatalf("harvested = %+v", got)
	}
	// The harvested bundle has the same layout as a local store: a
	// re-scan indexes it, and its profiles parse.
	p2, err := New(Config{Dir: dest, CPUWindow: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Bundles(); len(got) != 1 || got[0].AnomalyID != "a000003" {
		t.Fatalf("re-scan of harvest dir = %+v", got)
	}
	f, err := p2.Open(m1.ID, GoroutineProfile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ParseProfile(f); err != nil {
		t.Fatalf("harvested profile does not parse: %v", err)
	}
	// A second harvest is incremental: nothing new to pull.
	got, err = Harvest(nil, srv.URL, dest)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("re-harvest pulled %+v, want nothing", got)
	}
}

func TestCPUWindowCapture(t *testing.T) {
	p := testProfiler(t, nil) // 20ms CPU window
	// Burn a little CPU so the window has something to see (not asserted
	// on — 100 Hz over 20ms may still catch nothing; only parseability is).
	x := 0.0
	for i := 0; i < 1_000_00; i++ {
		x += float64(i) * 1.000001
	}
	_ = x
	meta, err := p.CaptureNow("cpu-window")
	if err != nil {
		t.Fatal(err)
	}
	if meta.CPUError != "" {
		t.Fatalf("CPU capture errored: %s", meta.CPUError)
	}
	if meta.CPUWindow != 20*time.Millisecond {
		t.Fatalf("CPUWindow = %v", meta.CPUWindow)
	}
	f, err := p.Open(meta.ID, CPUProfile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prof, err := ParseProfile(f)
	if err != nil {
		t.Fatalf("CPU profile does not parse: %v", err)
	}
	// A CPU profile always carries its sample-type header even with no
	// samples caught in the window.
	found := false
	for _, st := range prof.SampleTypes {
		if st.Type == "cpu" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cpu sample type: %+v", prof.SampleTypes)
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if got := p.Bundles(); got != nil {
		t.Fatalf("nil Bundles = %+v", got)
	}
	if _, err := p.CaptureNow("x"); err == nil {
		t.Fatal("nil CaptureNow should error")
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil handler = %d", rec.Code)
	}
	if p.Dir() != "" {
		t.Fatal("nil Dir should be empty")
	}
}

// BenchmarkSnapshotCapture measures the cost of one snapshot-only
// capture (heap+goroutine+mutex, no CPU window) — the per-interval
// price of background sampling.
func BenchmarkSnapshotCapture(b *testing.B) {
	p, err := New(Config{Dir: b.TempDir(), CPUWindow: -1, Cooldown: -1, KeepSamples: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Capture("bench", ClassSample, "", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordWhileWindowOpen measures the request-path cost the
// profiler adds while a CPU window is open: none directly (capture runs
// on its own goroutine) — this pins the hot-path arithmetic a profiled
// process runs.
func BenchmarkRecordWhileWindowOpen(b *testing.B) {
	p, err := New(Config{Dir: b.TempDir(), CPUWindow: 10 * time.Second, Cooldown: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()                                    // interrupts the open window
	go p.Capture("bench-window", ClassManual, "", nil) //lint:allow concurrency bench helper; Close interrupts the window and waits via capMu on next capture
	time.Sleep(5 * time.Millisecond)                   // let the window open
	b.ReportAllocs()
	b.ResetTimer()
	x := 0.0
	for i := 0; i < b.N; i++ {
		x += float64(i) * 1.000001
	}
	_ = x
}
