package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sbgt_http_test_total").Add(3)
	tr := NewTracer(8)
	tr.Start("probe").End()

	srv, err := Serve("127.0.0.1:0", MuxConfig{Reg: reg, Tracer: tr}, NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "sbgt_http_test_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	// Prometheus scrapers negotiate on the exposition-format version.
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type %q", ctype)
	}

	body, _ = get("/healthz")
	if body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}

	body, ctype = get("/metrics.json")
	if !strings.Contains(body, `"sbgt_http_test_total"`) {
		t.Errorf("/metrics.json = %q", body)
	}
	if ctype != "application/json" {
		t.Errorf("/metrics.json content type %q", ctype)
	}

	body, ctype = get("/spans")
	if !strings.Contains(body, `"probe"`) || !strings.Contains(body, `"dropped":0`) {
		t.Errorf("/spans = %q", body)
	}
	if ctype != "application/json" {
		t.Errorf("/spans content type %q", ctype)
	}
	var spansPayload struct {
		Dropped uint64       `json:"dropped"`
		Spans   []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &spansPayload); err != nil {
		t.Fatalf("/spans payload not JSON: %v", err)
	}
	if len(spansPayload.Spans) != 1 || spansPayload.Spans[0].Name != "probe" {
		t.Errorf("/spans payload = %+v", spansPayload)
	}

	// pprof index must answer (it proves the mux wiring, not the profiler).
	body, _ = get("/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index did not render: %q", body)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", MuxConfig{}, nil); err == nil {
		t.Fatal("Serve on an invalid address succeeded")
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		ok   bool
		want string
	}{
		{"", true, "INFO"}, {"info", true, "INFO"}, {"DEBUG", true, "DEBUG"},
		{"warn", true, "WARN"}, {"warning", true, "WARN"}, {"error", true, "ERROR"},
		{"verbose", false, ""},
	} {
		lv, err := ParseLevel(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseLevel(%q) err = %v", tc.in, err)
			continue
		}
		if tc.ok && lv.String() != tc.want {
			t.Errorf("ParseLevel(%q) = %s, want %s", tc.in, lv, tc.want)
		}
	}
}

func TestCLILogger(t *testing.T) {
	var sb strings.Builder
	l, err := CLILogger(&sb, "sbgt", "debug")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hello", "k", "v")
	out := sb.String()
	if !strings.Contains(out, "component=sbgt") || !strings.Contains(out, "hello") {
		t.Errorf("log line = %q", out)
	}
	if _, err := CLILogger(&sb, "sbgt", "loud"); err == nil {
		t.Error("bad level accepted")
	}
	// The nop logger must swallow output silently.
	OrNop(nil).Error("dropped")
}

// TestMuxConcurrentScrape is the race-gate test for the HTTP surface:
// scraping /metrics and /spans while writers pound the registry and
// tracer must be data-race-free and never return a failed request.
func TestMuxConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	tracer := NewTracer(64)
	tracer.SetDropCounter(reg.Counter("sbgt_obs_spans_dropped_total"))
	srv, err := Serve("127.0.0.1:0", MuxConfig{Reg: reg, Tracer: tracer}, NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const writers = 4
	const scrapes = 25
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("sbgt_scrape_race_total", L("w", string(rune('a'+w))))
			h := reg.Histogram("sbgt_scrape_race_seconds", nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				tracer.Start("race-span", A("w", w)).End()
			}
		}(w)
	}
	for _, path := range []string{"/metrics", "/spans", "/metrics.json"} {
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get("http://" + srv.Addr() + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Fatalf("GET %s: read: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestReadyzDefault(t *testing.T) {
	// With no readiness func /readyz mirrors /healthz: always 200.
	srv := httptest.NewServer(NewMux(MuxConfig{}))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
			t.Errorf("GET %s = %d %q, want 200 ok", path, resp.StatusCode, body)
		}
	}
}

func TestReadyzDrainFlipsTo503(t *testing.T) {
	// A draining server flips /readyz to 503 (with the reason in the body)
	// while /healthz stays 200 — the load balancer stops routing but the
	// orchestrator does not kill the process mid-drain.
	var draining atomic.Bool
	ready := func() error {
		if draining.Load() {
			return errors.New("draining")
		}
		return nil
	}
	srv := httptest.NewServer(NewMux(MuxConfig{Ready: []func() error{ready}}))
	defer srv.Close()

	status := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := status("/readyz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/readyz before drain = %d %q", code, body)
	}
	draining.Store(true)
	code, body := status("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if !strings.Contains(body, "draining") {
		t.Errorf("/readyz body %q does not carry the reason", body)
	}
	if code, _ := status("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200 (liveness is not readiness)", code)
	}
	draining.Store(false)
	if code, _ := status("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after drain = %d, want 200", code)
	}
}

func TestReadyzNilFunc(t *testing.T) {
	// A nil entry in the readiness chain is skipped, not dereferenced.
	srv := httptest.NewServer(NewMux(MuxConfig{Ready: []func() error{nil, func() error { return nil }}}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", resp.StatusCode)
	}
}
