package profiler

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Profile-share diffing: a before/after comparison of where the time
// goes. Two captures (or a capture and a committed baseline table) are
// compared by cumulative hot-function share; a function whose share of
// total grew by more than a threshold — and is large enough to matter —
// is a regression.
// Shares, not absolute nanoseconds, so a diff is meaningful across
// windows of different lengths and machines of different speeds.

// DiffOptions bounds what counts as a regression.
type DiffOptions struct {
	// ThresholdPP is the cumulative-share growth (percentage points) that
	// flags a function. Zero selects DefaultThresholdPP.
	ThresholdPP float64
	// MinShare ignores functions whose new cumulative share is below this
	// floor — noise in the tail of a 100 Hz profile, not signal. Zero
	// selects DefaultMinShare.
	MinShare float64
	// Top bounds the rows recorded in the result (0 = all).
	Top int
}

// DefaultThresholdPP flags a function whose cumulative share grew by
// ten percentage points — the scale of a kernel falling off a fast
// path, well above sampling jitter on short windows.
const DefaultThresholdPP = 10.0

// DefaultMinShare ignores functions under 5% of total: a short window
// has too few samples for the tail to be stable.
const DefaultMinShare = 0.05

// FuncDelta is one function's share movement between two tables.
type FuncDelta struct {
	Name    string  `json:"name"`
	OldCum  float64 `json:"old_cum"`
	NewCum  float64 `json:"new_cum"`
	DeltaPP float64 `json:"delta_pp"` // (new-old) in percentage points
	Regress bool    `json:"regress,omitempty"`
}

// DiffResult is the full comparison, sorted by |delta| descending.
type DiffResult struct {
	SampleType  string      `json:"sample_type"`
	OldTotal    int64       `json:"old_total"`
	NewTotal    int64       `json:"new_total"`
	Deltas      []FuncDelta `json:"deltas"`
	Regressions int         `json:"regressions"`
}

// Diff compares two share tables under opts.
func Diff(oldT, newT *ShareTable, opts DiffOptions) *DiffResult {
	if opts.ThresholdPP <= 0 {
		opts.ThresholdPP = DefaultThresholdPP
	}
	if opts.MinShare <= 0 {
		opts.MinShare = DefaultMinShare
	}
	oldCum := make(map[string]float64, len(oldT.Funcs))
	for _, f := range oldT.Funcs {
		oldCum[f.Name] = f.Cum
	}
	names := map[string]bool{}
	newCum := make(map[string]float64, len(newT.Funcs))
	for _, f := range newT.Funcs {
		newCum[f.Name] = f.Cum
		names[f.Name] = true
	}
	for name := range oldCum {
		names[name] = true
	}
	res := &DiffResult{SampleType: newT.SampleType, OldTotal: oldT.Total, NewTotal: newT.Total}
	for name := range names {
		o, n := oldCum[name], newCum[name]
		d := FuncDelta{Name: name, OldCum: o, NewCum: n, DeltaPP: (n - o) * 100}
		if d.DeltaPP >= opts.ThresholdPP && n >= opts.MinShare {
			d.Regress = true
			res.Regressions++
		}
		res.Deltas = append(res.Deltas, d)
	}
	sort.Slice(res.Deltas, func(i, j int) bool {
		ai, aj := abs(res.Deltas[i].DeltaPP), abs(res.Deltas[j].DeltaPP)
		if ai != aj { //lint:allow floats exact inequality is a deterministic sort tie-break, not a numeric test
			return ai > aj
		}
		return res.Deltas[i].Name < res.Deltas[j].Name
	})
	if opts.Top > 0 && len(res.Deltas) > opts.Top {
		// Never truncate a regression row: keep all flagged rows plus the
		// largest movers up to Top.
		kept := res.Deltas[:0]
		for _, d := range res.Deltas {
			if d.Regress || len(kept) < opts.Top {
				kept = append(kept, d)
			}
		}
		res.Deltas = kept
	}
	return res
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// baselineDoc is the committed-baseline file schema: a versioned wrapper
// so the format can grow without breaking old files.
type baselineDoc struct {
	Version int         `json:"version"`
	GitSHA  string      `json:"git_sha,omitempty"`
	Table   *ShareTable `json:"table"`
}

// WriteShareTable writes a share table as a committed baseline document.
func WriteShareTable(path string, t *ShareTable, gitSHA string) error {
	raw, err := json.MarshalIndent(&baselineDoc{Version: 1, GitSHA: gitSHA, Table: t}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadShareTable reads a committed baseline document.
func ReadShareTable(path string) (*ShareTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc baselineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("profiler: baseline %s: %w", path, err)
	}
	if doc.Table == nil {
		return nil, fmt.Errorf("profiler: baseline %s: no table", path)
	}
	return doc.Table, nil
}
