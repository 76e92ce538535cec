package lattice

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
)

func TestCredibleSetHandComputed(t *testing.T) {
	pool := newTestPool(t)
	// Two subjects with risks 0.4 and 0.2: masses are
	// {}: .48, {0}: .32, {1}: .12, {0,1}: .08.
	m := mustNew(t, pool, Config{Risks: []float64{0.4, 0.2}, Response: dilution.Ideal{}})
	set, mass := m.CredibleSet(0.5)
	if len(set) != 2 || set[0] != 0 || set[1] != bitvec.FromIndices(0) {
		t.Fatalf("50%% set = %v", set)
	}
	if math.Abs(mass-0.8) > 1e-12 {
		t.Fatalf("covered mass = %v, want 0.8", mass)
	}
	set, mass = m.CredibleSet(1)
	if len(set) != 4 {
		t.Fatalf("100%% set has %d states", len(set))
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Fatalf("full mass = %v", mass)
	}
}

func TestCredibleSetMonotoneInLevel(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(8, 0.15), Response: dilution.Binary{Sens: 0.9, Spec: 0.98}})
	if err := m.Update(bitvec.FromIndices(0, 1, 2), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	prevLen := 0
	for _, level := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		set, mass := m.CredibleSet(level)
		if mass < level-1e-12 {
			t.Fatalf("level %v: covered only %v", level, mass)
		}
		if len(set) < prevLen {
			t.Fatalf("set shrank as level grew: %d -> %d at %v", prevLen, len(set), level)
		}
		prevLen = len(set)
	}
}

func TestCredibleSetShrinksWithEvidence(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(10, 0.2), Response: dilution.Ideal{}})
	before, _ := m.CredibleSet(0.95)
	if err := m.Update(bitvec.Full(10), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	after, _ := m.CredibleSet(0.95)
	if len(after) != 1 || after[0] != 0 {
		t.Fatalf("post-clearance 95%% set = %v", after)
	}
	if len(before) <= len(after) {
		t.Fatalf("evidence did not shrink the set: %d -> %d", len(before), len(after))
	}
}

func TestCredibleSetPanics(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(3, 0.1), Response: dilution.Ideal{}})
	for _, level := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("level %v did not panic", level)
				}
			}()
			m.CredibleSet(level)
		}()
	}
}
