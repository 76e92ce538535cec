// Package bitvec provides bit-set arithmetic over compact subject masks.
//
// A lattice state for a cohort of N <= 64 subjects is a Mask: bit i is set
// when subject i is infected. Pools (the subsets of subjects mixed into one
// physical test) use the same representation, so likelihood evaluation
// reduces to popcount intersections. Binomial, the one combinatorial helper,
// is the coefficient of the calculator's binomial PMF.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Mask is a subset of subjects {0..63} encoded one bit per subject.
type Mask uint64

// MaxSubjects is the largest cohort size a single Mask can represent.
const MaxSubjects = 64

// FromIndices builds a Mask with the given subject indices set.
// It panics if an index is outside [0, MaxSubjects).
func FromIndices(idx ...int) Mask {
	var m Mask
	for _, i := range idx {
		if i < 0 || i >= MaxSubjects {
			panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, MaxSubjects))
		}
		m |= 1 << uint(i)
	}
	return m
}

// Full returns the mask with the n lowest bits set (the full cohort of size n).
// It panics if n is outside [0, MaxSubjects].
func Full(n int) Mask {
	if n < 0 || n > MaxSubjects {
		panic(fmt.Sprintf("bitvec: cohort size %d out of range [0,%d]", n, MaxSubjects))
	}
	if n == MaxSubjects {
		return ^Mask(0)
	}
	return Mask(1)<<uint(n) - 1
}

// Count reports the number of subjects in m.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// Has reports whether subject i is in m.
func (m Mask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// With returns m with subject i added.
func (m Mask) With(i int) Mask { return m | 1<<uint(i) }

// Without returns m with subject i removed.
func (m Mask) Without(i int) Mask { return m &^ (1 << uint(i)) }

// IntersectCount reports |m ∩ p|: the number of infected subjects a pool p
// captures from state m. This is the quantity dilution models condition on.
func (m Mask) IntersectCount(p Mask) int { return bits.OnesCount64(uint64(m & p)) }

// Disjoint reports whether m and p share no subjects.
func (m Mask) Disjoint(p Mask) bool { return m&p == 0 }

// SubsetOf reports whether every subject of m is also in p (m ⊆ p).
// This is the lattice partial order.
func (m Mask) SubsetOf(p Mask) bool { return m&^p == 0 }

// Meet returns the lattice meet (intersection) of m and p.
func (m Mask) Meet(p Mask) Mask { return m & p }

// Join returns the lattice join (union) of m and p.
func (m Mask) Join(p Mask) Mask { return m | p }

// Indices returns the subject indices in m in ascending order.
func (m Mask) Indices() []int {
	out := make([]int, 0, m.Count())
	for v := uint64(m); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &= v - 1
	}
	return out
}

// Lowest returns the smallest subject index in m, or -1 if m is empty.
func (m Mask) Lowest() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(m))
}

// Highest returns the largest subject index in m, or -1 if m is empty.
func (m Mask) Highest() int {
	if m == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(m))
}

// String renders m as a set literal such as {0,3,7}, for diagnostics.
func (m Mask) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, idx := range m.Indices() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", idx)
	}
	b.WriteByte('}')
	return b.String()
}
