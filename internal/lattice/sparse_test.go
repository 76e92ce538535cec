package lattice_test

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/sparse"
)

// The sparse backend runs the lattice kernels over its support, so a test
// that holds the two side by side lives outside package lattice.

func TestCredibleSetMatchesSparse(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15}
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	dense, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparse.New(sparse.Config{Risks: risks, Response: resp, Eps: 0})
	if err != nil {
		t.Fatal(err)
	}
	pm := bitvec.FromIndices(1, 3)
	if err := dense.Update(pm, dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if err := sp.Update(pm, dilution.Positive); err != nil {
		t.Fatal(err)
	}
	dSet, dMass := dense.CredibleSet(0.9)
	sSet, sMass := sp.CredibleSet(0.9)
	if math.Abs(dMass-sMass) > 1e-10 {
		t.Fatalf("covered mass %v vs %v", dMass, sMass)
	}
	if len(dSet) != len(sSet) {
		t.Fatalf("set sizes %d vs %d", len(dSet), len(sSet))
	}
	for i := range dSet {
		if dSet[i] != sSet[i] {
			t.Fatalf("state %d: %v vs %v", i, dSet[i], sSet[i])
		}
	}
}
