// Command sbgt-lint runs this repository's static-analysis suite over
// every non-test package in the module and exits non-zero on any
// diagnostic, so it can gate CI.
//
// Usage:
//
//	sbgt-lint [flags] [./...]
//
// The suite always covers the whole module; package-pattern arguments are
// accepted for interface parity with go vet but must lie inside it.
//
// Flags:
//
//	-list            print the analyzers and their invariants, then exit
//	-run a,b         run only the named analyzers
//	-audit           also fail on stale //lint:allow waivers; forces the
//	                 full suite so every waiver can be exercised
//	-log-level       debug | info | warn | error (default info)
//
// Exit status: 0 clean, 1 diagnostics (or stale waivers under -audit)
// reported, 2 usage or load failure.
// Intentional exceptions are annotated in source as
// "//lint:allow <analyzer> <reason>"; see internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	audit := flag.Bool("audit", false, "fail on stale lint:allow waivers too (forces the full suite)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
	flag.Parse()

	logg, err := obs.CLILogger(os.Stderr, "sbgt-lint", *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbgt-lint:", err)
		os.Exit(2)
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *runNames != "" {
		if *audit {
			// A waiver for an excluded analyzer would always read as stale;
			// auditing is only sound over the full suite.
			logg.Error("-audit cannot be combined with -run: stale-waiver detection needs the full suite")
			os.Exit(2)
		}
		var unknown string
		analyzers, unknown = analysis.ByName(strings.Split(*runNames, ","))
		if unknown != "" {
			logg.Error("unknown analyzer (use -list)", "name", unknown)
			os.Exit(2)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		logg.Error(err.Error())
		os.Exit(2)
	}
	for _, arg := range flag.Args() {
		if err := checkPattern(root, arg); err != nil {
			logg.Error(err.Error())
			os.Exit(2)
		}
	}

	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		logg.Error(err.Error())
		os.Exit(2)
	}

	diags, staleWaivers := analysis.RunAudit(pkgs, analyzers)
	if *audit {
		diags = append(diags, staleWaivers...)
	}
	for _, d := range diags {
		d.Pos.Filename = relTo(root, d.Pos.Filename)
		fmt.Println(d)
	}
	if len(diags) > 0 {
		logg.Error("diagnostics reported", "count", len(diags))
		os.Exit(1)
	}
}

// relTo rewrites path relative to root when possible.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// checkPattern validates that a package-pattern argument stays inside the
// module (the suite always lints the whole module regardless).
func checkPattern(root, pattern string) error {
	p := strings.TrimSuffix(pattern, "...")
	p = strings.TrimSuffix(p, "/")
	if p == "" || p == "." {
		return nil
	}
	abs, err := filepath.Abs(p)
	if err != nil {
		return err
	}
	if abs != root && !strings.HasPrefix(abs, root+string(filepath.Separator)) {
		return fmt.Errorf("pattern %q lies outside the module at %s", pattern, root)
	}
	return nil
}
