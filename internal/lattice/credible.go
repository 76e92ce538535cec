package lattice

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/prob"
)

// credibleMaxSubjects bounds CredibleSet: materializing (mass, state)
// pairs for sorting costs 16·2^N bytes, which stops being an "analysis
// call" past 2^24 states.
const credibleMaxSubjects = 24

// CredibleSet returns the smallest set of lattice states whose posterior
// mass reaches level — the highest-posterior-density region that
// "precisely quantifies uncertainty in diagnoses": its size is the number
// of infection scenarios still compatible with the data at that
// confidence. States arrive in descending mass order (ties broken by
// state index, so the result is deterministic); the second return is the
// mass actually covered (≥ level, except when the entire lattice carries
// less, which cannot happen for a normalized posterior).
//
// It panics when level is outside (0, 1] or the cohort exceeds 24
// subjects (use the sparse model's CredibleSet at larger N).
func (m *Model) CredibleSet(level float64) ([]bitvec.Mask, float64) {
	if !(level > 0 && level <= 1) {
		panic(fmt.Sprintf("lattice: credible level %v outside (0,1]", level))
	}
	if m.n > credibleMaxSubjects {
		panic(fmt.Sprintf("lattice: CredibleSet on %d subjects exceeds the %d-subject analysis bound", m.n, credibleMaxSubjects))
	}
	type entry struct {
		state uint64
		mass  float64
	}
	entries := make([]entry, 0, m.post.Len())
	for _, w := range m.settle().Slice() {
		entries = append(entries, entry{uint64(len(entries)), w})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].mass != entries[b].mass { //lint:allow floats exact inequality is a deterministic sort tie-break, not a numeric test
			return entries[a].mass > entries[b].mass
		}
		return entries[a].state < entries[b].state
	})
	var out []bitvec.Mask
	var acc prob.Accumulator
	for _, e := range entries {
		if e.mass <= 0 {
			break
		}
		out = append(out, bitvec.Mask(e.state))
		acc.Add(e.mass)
		if acc.Value() >= level {
			break
		}
	}
	return out, acc.Value()
}
