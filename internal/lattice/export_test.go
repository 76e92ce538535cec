package lattice

// Exports for scale_test.go, which drives the model through its exported
// API only, from package lattice_test.

// The eager references of oracle_test.go.
var (
	UpdateEager    = updateEager
	ConditionEager = conditionEager
)

// StoredMass returns the total of the model's storage as it stands, with
// the carried scale neither applied nor consumed.
func StoredMass(m *Model) float64 { return m.post.Sum() }
