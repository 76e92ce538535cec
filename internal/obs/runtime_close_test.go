package obs

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestRuntimeCloseOrdering boots a Runtime the way sbgt-exec does —
// -cpuprofile AND -metrics-addr together — then races Close from
// concurrent goroutines against a SIGTERM-style readiness drain. It pins
// three contracts:
//
//   - the -cpuprofile file is a complete pprof document after Close.
//   - Close is idempotent and concurrency-safe: every caller observes
//     the same result and the teardown runs once.
//   - After Close returns, the metrics listener is down.
func TestRuntimeCloseOrdering(t *testing.T) {
	cpuPath := filepath.Join(t.TempDir(), "cpu.pprof")
	f := &CLIFlags{MetricsAddr: "127.0.0.1:0", LogLevel: "error", CPUProfile: cpuPath}
	rt, err := f.Start("obs-close-test")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + rt.server.Addr()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/healthz: status %d", base, resp.StatusCode)
	}

	// Race the deferred-Close path against a SIGTERM drain: one goroutine
	// plays the signal handler (flip readiness, then Close), the others
	// are deferred Closes firing at process exit.
	const closers = 3
	errs := make([]error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				rt.SetReadyError(fmt.Errorf("draining"))
			}
			errs[i] = rt.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Errorf("Close[%d] = %v, want the shared result %v", i, err, errs[0])
		}
	}
	if errs[0] != nil {
		t.Fatalf("Close: %v", errs[0])
	}
	// A late straggler (a second deferred Close) sees the cached result.
	if err := rt.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}

	// The -cpuprofile file must be a finished pprof document: a gzip
	// stream that reads to its trailer. If teardown raced itself, or the
	// file closed before StopCPUProfile flushed, the checksum read fails.
	raw, err := os.Open(cpuPath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	zr, err := gzip.NewReader(raw)
	if err != nil {
		t.Fatalf("-cpuprofile output is not gzip: %v", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("-cpuprofile output: %d bytes, err %v", n, err)
	}

	// Listener is gone: the drain completed before Close returned.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("metrics listener still accepting connections after Close")
	}
}

// TestRuntimeCloseWithoutServer covers the flags-off shape (no metrics
// addr, no profiles): Close must still be idempotent and error-free.
func TestRuntimeCloseWithoutServer(t *testing.T) {
	f := &CLIFlags{LogLevel: "error"}
	rt, err := f.Start("obs-close-test")
	if err != nil {
		t.Fatal(err)
	}
	if rt.server != nil {
		t.Error("metrics server started with no -metrics-addr")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
