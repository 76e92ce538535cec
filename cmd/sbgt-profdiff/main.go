// Command sbgt-profdiff compares two profile captures by cumulative
// hot-function share and exits nonzero on regression: a before/after
// comparison of where the time goes rather than of how much there is.
//
// Usage:
//
//	sbgt-profdiff [flags] OLD NEW
//	sbgt-profdiff -write-baseline out.json CAPTURE
//
// OLD and NEW each name a capture, in any of three forms:
//
//	a .pprof file        raw gzipped profile (runtime/pprof output, or a
//	                     file downloaded from /debug/profiles/{id}/{file})
//	a bundle directory   a continuous-profiler bundle (contains meta.json);
//	                     -profile picks the file inside (default cpu.pprof)
//	a baseline .json     a share table committed by -write-baseline
//
// The comparison is by per-function share of total, not absolute time,
// so captures of different window lengths and machines diff cleanly. A
// function is a regression when its cumulative share grew by at least
// -threshold-pp percentage points AND its new share clears -min-share
// (the tail of a short 100 Hz window is noise, not signal). Improvements
// never fail the diff.
//
// Flags:
//
//	-profile string       file inside a bundle directory (default cpu.pprof)
//	-sample string        sample type to compare (default: cpu, else the
//	                      profile's default column)
//	-threshold-pp float   regression threshold in percentage points (default 10)
//	-min-share float      ignore functions below this new share (default 0.05)
//	-top int              rows shown (default 15; regressions always shown)
//	-json                 emit the full diff as JSON instead of text
//	-write-baseline path  write CAPTURE's share table to path and exit
//
// Exit status: 0 clean, 1 regression detected, 2 usage or read error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs/profiler"
)

func main() {
	var (
		profile     = flag.String("profile", profiler.CPUProfile, "file inside a bundle directory")
		sample      = flag.String("sample", "", "sample type to compare (default: cpu, else the profile's default)")
		thresholdPP = flag.Float64("threshold-pp", profiler.DefaultThresholdPP, "regression threshold in percentage points")
		minShare    = flag.Float64("min-share", profiler.DefaultMinShare, "ignore functions below this new cumulative share")
		top         = flag.Int("top", 15, "rows shown (regressions always shown)")
		asJSON      = flag.Bool("json", false, "emit the diff as JSON")
		writeBase   = flag.String("write-baseline", "", "write the capture's share table to this file and exit")
	)
	flag.Parse()

	if *writeBase != "" {
		if flag.NArg() != 1 {
			usage("writing a baseline takes exactly one capture")
		}
		tab, err := loadTable(flag.Arg(0), *profile, *sample)
		if err != nil {
			fail(err)
		}
		if err := profiler.WriteShareTable(*writeBase, tab, ""); err != nil {
			fail(err)
		}
		fmt.Printf("sbgt-profdiff: wrote baseline %s (%d functions, total %d)\n",
			*writeBase, len(tab.Funcs), tab.Total)
		return
	}

	if flag.NArg() != 2 {
		usage("need OLD and NEW captures")
	}
	oldT, err := loadTable(flag.Arg(0), *profile, *sample)
	if err != nil {
		fail(err)
	}
	newT, err := loadTable(flag.Arg(1), *profile, *sample)
	if err != nil {
		fail(err)
	}
	res := profiler.Diff(oldT, newT, profiler.DiffOptions{
		ThresholdPP: *thresholdPP,
		MinShare:    *minShare,
		Top:         *top,
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
	} else {
		render(res, flag.Arg(0), flag.Arg(1))
	}
	if res.Regressions > 0 {
		os.Exit(1)
	}
}

// loadTable resolves one capture reference into a share table.
func loadTable(ref, profile, sample string) (*profiler.ShareTable, error) {
	info, err := os.Stat(ref)
	if err != nil {
		return nil, fmt.Errorf("sbgt-profdiff: %w", err)
	}
	if info.IsDir() {
		// A bundle directory: diff the chosen profile inside it.
		if _, err := os.Stat(filepath.Join(ref, profiler.MetaFile)); err != nil {
			return nil, fmt.Errorf("sbgt-profdiff: %s is not a profile bundle (no %s)", ref, profiler.MetaFile)
		}
		ref = filepath.Join(ref, profile)
		if _, err := os.Stat(ref); err != nil {
			return nil, fmt.Errorf("sbgt-profdiff: bundle has no %s: %w", profile, err)
		}
	}
	if strings.HasSuffix(ref, ".json") {
		return profiler.ReadShareTable(ref)
	}
	p, err := profiler.ParseProfileFile(ref)
	if err != nil {
		return nil, fmt.Errorf("sbgt-profdiff: %s: %w", ref, err)
	}
	return p.Table(sample)
}

func render(res *profiler.DiffResult, oldRef, newRef string) {
	fmt.Printf("sbgt-profdiff: %s (total %d) vs %s (total %d), %s\n",
		oldRef, res.OldTotal, newRef, res.NewTotal, res.SampleType)
	if len(res.Deltas) == 0 {
		fmt.Println("no functions to compare (empty profiles)")
	} else {
		fmt.Printf("%-52s %8s %8s %9s\n", "FUNCTION", "OLD", "NEW", "DELTA")
		for _, d := range res.Deltas {
			mark := ""
			if d.Regress {
				mark = "  REGRESSION"
			}
			name := d.Name
			if len(name) > 52 {
				name = "…" + name[len(name)-51:]
			}
			fmt.Printf("%-52s %7.1f%% %7.1f%% %+8.1fpp%s\n",
				name, d.OldCum*100, d.NewCum*100, d.DeltaPP, mark)
		}
	}
	if res.Regressions > 0 {
		fmt.Printf("sbgt-profdiff: %d regression(s)\n", res.Regressions)
	} else {
		fmt.Println("sbgt-profdiff: clean")
	}
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "sbgt-profdiff: %s\nusage: sbgt-profdiff [flags] OLD NEW\n       sbgt-profdiff -write-baseline out.json CAPTURE\n", msg)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
