package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// selfcheckRuns is the number of runs of each workload in each set: the
// ten the acceptance check makes.
const selfcheckRuns = 10

// selfCheck asks whether the benchmark agrees with itself, by the rule
// the acceptance check applies. It runs every workload in two sets, A and
// B, on the same build, each run in its own process and with its own
// seed (run i of both sets uses seed i+1). The runs are interleaved as
// tightly as they can be, A B of one workload, then of the next, then
// the second run of each: the host's slow episodes last minutes, and
// this way one costs every workload a run or two, where workload after
// workload it would cost one of them all ten.
//
// For every end-to-end metric it prints both medians, how much worse
// B's is than A's, each set's quartile spread as a share of its median,
// and the bound. It returns 1 if a gap exceeds its bound and 2 if a run
// failed. A spread over its bound (set-up time's excepted, as the
// acceptance check excepts it) is marked noisy and counted in the last
// line, but does not fail the check: two sets of one build can only
// differ by the host's noise, and a wide spread is a statement about the
// host in that hour, in which the acceptance check would refuse any
// benchmark of this system.
func selfCheck(w io.Writer, seconds float64) int {
	const runs = selfcheckRuns
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(w, "selfcheck:", err)
		return 2
	}
	fmt.Fprintf(w, "selfcheck: 2 sets x %d runs x %d workloads, %.0f s measured per run\n", runs, len(workloads), seconds)
	type sets [2]map[string][]float64
	values := map[string]*sets{}
	for _, wl := range workloads {
		values[wl.name] = &sets{{}, {}}
	}
	for i := 0; i < runs; i++ {
		for _, wl := range workloads {
			for s := range values[wl.name] {
				res, err := runChild(self, wl.name, uint64(i+1), seconds)
				if err != nil {
					fmt.Fprintf(w, "%s run %d set %c: %v\n", wl.name, i, 'A'+s, err)
					return 2
				}
				for name, v := range res.Metrics {
					values[wl.name][s][name] = append(values[wl.name][s][name], v.Value)
				}
			}
		}
	}
	status, noisy := 0, 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n%-20s %12s %12s %8s %9s %9s %7s\n", wl.name, "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
		for _, m := range endToEnd {
			a, b := values[wl.name][0][m.name], values[wl.name][1][m.name]
			medA, medB := percentile(a, 0.5), percentile(b, 0.5)
			gap := (medB - medA) / medA // how much worse B is
			if m.better == higherBetter {
				gap = -gap
			}
			spreadA, spreadB := iqrShare(a), iqrShare(b)
			verdict := "ok"
			switch {
			case gap > m.bound:
				verdict, status = "FAIL", 1
			case m.name != "setup_s" && (spreadA > m.bound || spreadB > m.bound):
				verdict = "noisy"
				noisy++
			}
			fmt.Fprintf(w, "%-20s %12.5g %12.5g %+8.4f %9.4f %9.4f %7.4f %s\n", m.name, medA, medB, gap, spreadA, spreadB, m.bound, verdict)
		}
	}
	switch {
	case status != 0:
		fmt.Fprintln(w, "\nselfcheck: FAILED, a gap between the two sets exceeds its bound")
	case noisy > 0:
		fmt.Fprintf(w, "\nselfcheck: every gap is within its bound; %d spreads are not, so the acceptance check would have refused the benchmark on this host in this hour\n", noisy)
	default:
		fmt.Fprintln(w, "\nselfcheck: every gap and every spread is within its bound")
	}
	return status
}

// runChild runs one end-to-end run in a process of its own, so that
// peak_rss_mb is that run's and nothing carries over between runs.
func runChild(self, workload string, seed uint64, seconds float64) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run incorrect: %d of %d operations failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
