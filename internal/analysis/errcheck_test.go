package analysis

import "testing"

func TestErrcheckGolden(t *testing.T) {
	runGolden(t, "errcheck", "repro/internal/core", "errcheck", []*Analyzer{Errcheck})
}
