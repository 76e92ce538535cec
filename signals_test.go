package sbgt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSignalTable keeps the observability diet: every "sbgt_…" family a
// non-test file registers (a literal first argument to Counter, Gauge,
// GaugeFunc or Histogram) must be named by metricNameRule and have a row
// — and so a named consumer — in DESIGN.md §9.5, and the table may not
// list a family no code registers. benchmark/ is left out: it registers
// nothing of its own, it wires the drop counter cli.go also registers.
func TestSignalTable(t *testing.T) {
	registered := map[string]string{} // family -> first position seen
	kinds := map[string]string{}      // family -> counter | gauge | histogram
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "benchmark" || d.Name() == "testdata" || (p != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind := map[string]string{
				"Counter": "counter", "Gauge": "gauge", "GaugeFunc": "gauge", "Histogram": "histogram",
			}[sel.Sel.Name]
			if kind == "" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err == nil && strings.HasPrefix(name, "sbgt_") && registered[name] == "" {
				registered[name] = fset.Position(lit.Pos()).String()
				kinds[name] = kind
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(registered) == 0 {
		t.Fatal("found no registered sbgt_ families; the scan is broken")
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "### 9.5 Signal → consumer")
	if !ok {
		t.Fatal("DESIGN.md has no §9.5 signal → consumer section")
	}
	if i := strings.Index(section, "\n## "); i >= 0 {
		section = section[:i]
	}
	family := regexp.MustCompile("`(sbgt_[a-z0-9_]+)`")
	tabled := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.TrimSpace(cells[2]) == "" {
			continue // not a table row, or a row with no consumer
		}
		for _, m := range family.FindAllStringSubmatch(cells[1], -1) {
			tabled[m[1]] = true
		}
	}

	var names []string
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if msg := metricNameRule(kinds[name], name); msg != "" {
			t.Errorf("%s: %s %s: %s", registered[name], kinds[name], name, msg)
		}
		if !tabled[name] {
			t.Errorf("%s: family %s is registered but has no consumer row in DESIGN.md §9.5 — name its reader or delete it",
				registered[name], name)
		}
	}
	for name := range tabled {
		if registered[name] == "" {
			t.Errorf("DESIGN.md §9.5 lists %s, which no non-test code registers", name)
		}
	}
}

var metricName = regexp.MustCompile(`^sbgt(_[a-z0-9]+){2,}$`)

// metricNameRule returns why a family of the given kind may not carry
// name, or "" when it may: sbgt_<subsystem>_<name> in lower snake case,
// _total on counters and only on counters, and a base unit on histograms.
func metricNameRule(kind, name string) string {
	switch {
	case !metricName.MatchString(name):
		return "name must match " + metricName.String()
	case kind == "counter" && !strings.HasSuffix(name, "_total"):
		return "counter names must end in _total"
	case kind != "counter" && strings.HasSuffix(name, "_total"):
		return "_total is reserved for counters"
	case kind == "histogram" && !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes"):
		return "histogram names must end in a base unit (_seconds or _bytes)"
	}
	return ""
}

func TestMetricNameRule(t *testing.T) {
	for _, c := range []struct {
		kind, name string
		ok         bool
	}{
		{"counter", "sbgt_serve_requests_total", true},
		{"gauge", "sbgt_serve_cohorts", true},
		{"histogram", "sbgt_serve_request_seconds", true},
		{"histogram", "sbgt_core_checkpoint_bytes", true},
		{"counter", "requests_total", false},
		{"counter", "sbgt_serve_requests", false},
		{"counter", "sbgt_Serve_requests_total", false},
		{"gauge", "sbgt_serve_cohorts_total", false},
		{"histogram", "sbgt_serve_request_millis", false},
		{"histogram", "sbgt_serve_request_seconds_total", false},
	} {
		if got := metricNameRule(c.kind, c.name); (got == "") != c.ok {
			t.Errorf("metricNameRule(%s, %s) = %q, want ok=%v", c.kind, c.name, got, c.ok)
		}
	}
}
