// Command sbgt-metriclint checks a registry snapshot (the /metrics.json
// document) against the repo's metric-naming contract. It is the
// observability analogue of sbgt-lint: run it in CI over a snapshot
// captured from a real smoke run and it fails the build when a metric
// sneaks in under a malformed name or with unbounded label cardinality.
//
// Usage:
//
//	sbgt-metriclint [-max-cardinality 64] <snapshot.json | URL | ->
//
// The argument is a file path, an http(s) URL (scraped live), or "-"
// for stdin. Exit status 1 when any rule is violated, 2 on usage or
// read errors.
//
// Rules:
//
//   - every name matches sbgt_<subsystem>_<name>: ^sbgt(_[a-z0-9]+){2,}$
//   - counters end in _total; gauges and histograms never do
//   - histograms end in a base unit: _seconds or _bytes
//   - label keys match ^[a-z][a-z0-9_]*$
//   - no (metric, label key) pair exceeds -max-cardinality distinct
//     values — the bound that keeps per-tenant labels from exploding a
//     scrape (the server caps tenants and overflows into "__other__";
//     this verifies nothing bypasses that cap)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"

	"repro/internal/obs"
)

var (
	nameRE  = regexp.MustCompile(`^sbgt(_[a-z0-9]+){2,}$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

func main() {
	maxCard := flag.Int("max-cardinality", 64, "max distinct values per (metric, label key)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sbgt-metriclint [-max-cardinality N] <snapshot.json | URL | ->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	snap, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbgt-metriclint:", err)
		os.Exit(2)
	}

	violations := lint(snap, *maxCard)
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "sbgt-metriclint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("sbgt-metriclint: %d series clean\n",
		len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
}

func load(src string) (*obs.Snapshot, error) {
	var r io.Reader
	switch {
	case src == "-":
		r = os.Stdin
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", src, resp.StatusCode)
		}
		r = resp.Body
	default:
		f, err := os.Open(src)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode %s: %w", src, err)
	}
	return &snap, nil
}

// series is the name+labels view the rules operate on, flattened across
// the three metric kinds.
type series struct {
	kind   string // "counter" | "gauge" | "histogram"
	name   string
	labels []obs.Label
}

func lint(snap *obs.Snapshot, maxCard int) []string {
	var all []series
	for _, c := range snap.Counters {
		all = append(all, series{"counter", c.Name, c.Labels})
	}
	for _, g := range snap.Gauges {
		all = append(all, series{"gauge", g.Name, g.Labels})
	}
	for _, h := range snap.Histograms {
		all = append(all, series{"histogram", h.Name, h.Labels})
	}

	var out []string
	badName := map[string]bool{} // report shape rules once per family, not per series
	report := func(name, msg string) {
		if !badName[name+msg] {
			badName[name+msg] = true
			out = append(out, fmt.Sprintf("%s: %s", name, msg))
		}
	}

	// cardinality[metric][labelKey] = set of values seen.
	cardinality := map[string]map[string]map[string]bool{}

	for _, s := range all {
		if !nameRE.MatchString(s.name) {
			report(s.kind+" "+s.name, "name must match sbgt_<subsystem>_<name> (^sbgt(_[a-z0-9]+){2,}$)")
		}
		switch s.kind {
		case "counter":
			if !strings.HasSuffix(s.name, "_total") {
				report("counter "+s.name, "counter names must end in _total")
			}
		case "gauge", "histogram":
			if strings.HasSuffix(s.name, "_total") {
				report(s.kind+" "+s.name, "_total is reserved for counters")
			}
		}
		if s.kind == "histogram" &&
			!strings.HasSuffix(s.name, "_seconds") && !strings.HasSuffix(s.name, "_bytes") {
			report("histogram "+s.name, "histogram names must end in a base unit (_seconds or _bytes)")
		}
		for _, l := range s.labels {
			if !labelRE.MatchString(l.Key) {
				report(s.kind+" "+s.name, fmt.Sprintf("label key %q must match ^[a-z][a-z0-9_]*$", l.Key))
			}
			byKey := cardinality[s.name]
			if byKey == nil {
				byKey = map[string]map[string]bool{}
				cardinality[s.name] = byKey
			}
			if byKey[l.Key] == nil {
				byKey[l.Key] = map[string]bool{}
			}
			byKey[l.Key][l.Value] = true
		}
	}

	var names []string
	for name := range cardinality {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var keys []string
		for k := range cardinality[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if n := len(cardinality[name][k]); n > maxCard {
				out = append(out, fmt.Sprintf("%s: label %q has %d distinct values (max %d) — unbounded cardinality",
					name, k, n, maxCard))
			}
		}
	}
	sort.Strings(out)
	return out
}
