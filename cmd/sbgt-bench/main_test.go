package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/posterior"
)

// TestEveryExperimentRunsQuick is the cannot-rot guard for the table
// generator: nothing else in the tree executes these experiments. Each one
// must return nil and print a titled table with at least one data row.
func TestEveryExperimentRunsQuick(t *testing.T) {
	reg := obs.NewRegistry()
	c := &ctx{
		quick:   true,
		workers: 2,
		seed:    1,
		obs:     reg,
		backend: posterior.Spec{Kind: posterior.KindDense, Obs: reg},
	}
	seen := map[string]bool{}
	for _, e := range registry() {
		if seen[e.id] {
			t.Errorf("experiment id %s registered twice", e.id)
		}
		seen[e.id] = true

		var buf bytes.Buffer
		c.out = &buf
		if err := e.run(c); err != nil {
			t.Errorf("%s: %v", e.id, err)
			continue
		}
		// A table is its "== title ==" line, the header, the rule, then rows.
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if !strings.HasPrefix(lines[0], "== "+e.id+": ") {
			t.Errorf("%s: output does not open with its table title:\n%s", e.id, buf.String())
			continue
		}
		if len(lines) < 4 {
			t.Errorf("%s: table has no data row:\n%s", e.id, buf.String())
			continue
		}
		if e.id == "F4" {
			// The entropy trace is opt-in (core.Config.EntropyTrace); a study
			// that forgot to ask for it would print a flat table of zeros. In
			// every arm the first stage printed after the prior must have
			// removed some entropy and left some.
			for _, row := range lines[3:] {
				f := strings.Fields(row)
				prior, _ := strconv.ParseFloat(f[1], 64)
				next, err := strconv.ParseFloat(f[2], 64)
				if err != nil || !(next > 0 && next < prior) {
					t.Errorf("F4 %s: entropy %q after the prior's %q, want positive and below it", f[0], f[2], f[1])
				}
			}
		}
	}

	// F6 opens its cluster backend with the run's registry, so the driver's
	// RPC and posterior-op series are populated after it ran.
	counts := map[string]uint64{}
	for _, h := range reg.Snapshot().Histograms {
		switch h.Name {
		case "sbgt_cluster_rpc_seconds":
			counts[h.Name] += h.Count
		case "sbgt_posterior_op_seconds":
			for _, l := range h.Labels {
				if l == obs.L("backend", "cluster") {
					counts[h.Name] += h.Count
				}
			}
		}
	}
	for _, name := range []string{"sbgt_cluster_rpc_seconds", "sbgt_posterior_op_seconds"} {
		if counts[name] == 0 {
			t.Errorf("no %s observations for the cluster backend after F6", name)
		}
	}
}
