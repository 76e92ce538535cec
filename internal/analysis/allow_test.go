package analysis

import "testing"

func TestAllowGolden(t *testing.T) {
	// The golden holds exactly: the errcheck diagnostic the wrong-analyzer
	// annotation failed to suppress, the malformed-allow diagnostic, and
	// the errcheck diagnostic the malformed annotation failed to suppress.
	// The correctly annotated sites must be absent.
	runGolden(t, "allow", "repro/internal/core", "allow", []*Analyzer{Errcheck})
}

func TestAllowSuppressesOnlyNamedAnalyzer(t *testing.T) {
	diags := loadAndRun(t, "allow", "repro/internal/core", []*Analyzer{Errcheck})
	counts := countByAnalyzer(diags)
	if counts["errcheck"] != 2 {
		t.Errorf("want 2 surviving errcheck diagnostics (wrong analyzer + malformed), got %d", counts["errcheck"])
	}
	if counts["allow"] != 1 {
		t.Errorf("want 1 malformed-allow diagnostic, got %d", counts["allow"])
	}
}
