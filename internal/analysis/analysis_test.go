package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runGolden loads testdata/src/<dir> under the given package path, runs
// the analyzers, and compares the rendered diagnostics against
// testdata/<golden>.golden. Run `go test ./internal/analysis -update` to
// regenerate the goldens after an intentional analyzer change.
func runGolden(t *testing.T, dir, pkgPath, golden string, analyzers []*Analyzer) {
	t.Helper()
	diags := loadAndRun(t, dir, pkgPath, analyzers)
	var b strings.Builder
	for _, d := range diags {
		name := filepath.ToSlash(d.Pos.Filename)
		if i := strings.Index(name, "testdata/src/"); i >= 0 {
			name = name[i+len("testdata/src/"):]
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", golden+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", dir, got, want)
	}
}

func loadAndRun(t *testing.T, dir, pkgPath string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", dir), pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	return Run([]*Package{pkg}, analyzers)
}

// countByAnalyzer buckets diagnostics for assertions that do not need
// exact positions.
func countByAnalyzer(diags []Diagnostic) map[string]int {
	out := map[string]int{}
	for _, d := range diags {
		out[d.Analyzer]++
	}
	return out
}

// TestSuiteCleanOnModule is the keystone regression: the full suite must
// run clean over the real module tree with no stale waivers — exactly the
// CI gate (sbgt-lint -audit).
func TestSuiteCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from the module; loader lost coverage", len(pkgs))
	}
	diags, staleWaivers := RunAudit(pkgs, All())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on clean tree: %s", d)
	}
	for _, d := range staleWaivers {
		t.Errorf("stale waiver: %s", d)
	}
}

// TestGoroutineleakGolden pins the goroutine-leak check on a fixture
// holding true positives, clean spawns and one waived false positive.
func TestGoroutineleakGolden(t *testing.T) {
	runGolden(t, "goroutineleak", "repro/internal/goroutineleak", "goroutineleak", []*Analyzer{Goroutineleak})
}

func TestByName(t *testing.T) {
	got, unknown := ByName([]string{"floats", "errcheck"})
	if unknown != "" || len(got) != 2 || got[0].Name != "floats" || got[1].Name != "errcheck" {
		t.Fatalf("ByName(floats,errcheck) = %v, %q", got, unknown)
	}
	if _, unknown := ByName([]string{"nope"}); unknown != "nope" {
		t.Fatalf("ByName(nope) reported %q, want nope", unknown)
	}
}
