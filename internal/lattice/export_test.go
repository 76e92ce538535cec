package lattice

// Exports for scale_test.go, which is in package lattice_test because it
// round-trips the model through latticeio (which imports this package).

// The eager references of oracle_test.go.
var (
	UpdateEager    = updateEager
	ConditionEager = conditionEager
)

// StoredMass returns the total of the model's storage as it stands, with
// the carried scale neither applied nor consumed.
func StoredMass(m *Model) float64 { return m.post.Sum() }
