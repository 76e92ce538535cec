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
// GaugeFunc or Histogram) must have a row — and so a named consumer — in
// DESIGN.md §9.5, and the table may not list a family no code registers.
// benchmark/ is left out: it registers nothing of its own, it wires the
// drop counter cli.go also registers.
func TestSignalTable(t *testing.T) {
	registered := map[string]string{} // family -> first position seen
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
			switch sel.Sel.Name {
			case "Counter", "Gauge", "GaugeFunc", "Histogram":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err == nil && strings.HasPrefix(name, "sbgt_") && registered[name] == "" {
				registered[name] = fset.Position(lit.Pos()).String()
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
