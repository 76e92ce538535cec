package bitvec

import "testing"

// FuzzBitVecRoundTrip checks that Indices and FromIndices invert each other
// for every mask, and that Indices lists exactly the members Has and Count
// report.
func FuzzBitVecRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0b1011))
	f.Add(uint64(1) << 63)
	f.Add(^uint64(0))
	f.Add(uint64(0xdeadbeef))
	f.Add(uint64(0b111))

	f.Fuzz(func(t *testing.T, raw uint64) {
		m := Mask(raw)
		idx := m.Indices()
		if got := FromIndices(idx...); got != m {
			t.Fatalf("FromIndices(%v.Indices()) = %v", m, got)
		}
		if len(idx) != m.Count() {
			t.Fatalf("len(Indices()) = %d, Count() = %d", len(idx), m.Count())
		}
		for _, i := range idx {
			if !m.Has(i) {
				t.Fatalf("Indices() reported %d but Has(%d) is false on %v", i, i, m)
			}
		}
	})
}
