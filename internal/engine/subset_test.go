package engine

import (
	"testing"

	"repro/internal/prob"
	"repro/internal/rng"
)

// bruteMinSubsetGE is the O(2^popcount) reference: enumerate every
// submask of free in increasing order and return the first >= x.
func bruteMinSubsetGE(free, x uint64) (uint64, bool) {
	f := uint64(0)
	for {
		if f >= x {
			return f, true
		}
		if f == free {
			return 0, false
		}
		f = (f - free) & free
	}
}

func TestMinSubsetGEExhaustive(t *testing.T) {
	// Every mask over 8 bits against every threshold in range: the greedy
	// construction must match brute-force enumeration exactly.
	for free := uint64(0); free < 1<<8; free++ {
		for x := uint64(0); x <= 1<<8; x++ {
			got, gok := minSubsetGE(free, x)
			want, wok := bruteMinSubsetGE(free, x)
			if gok != wok || (gok && got != want) {
				t.Fatalf("minSubsetGE(%#b, %d) = %d,%v want %d,%v", free, x, got, gok, want, wok)
			}
		}
	}
}

func TestMinSubsetGESparseHighBits(t *testing.T) {
	// Spot checks with high, sparse masks where brute force still runs.
	r := rng.New(42)
	for trial := 0; trial < 2000; trial++ {
		free := r.Uint64() & r.Uint64() & r.Uint64() // ~8 set bits on average
		x := r.Uint64() & (free | r.Uint64()&0xffff)
		got, gok := minSubsetGE(free, x)
		want, wok := bruteMinSubsetGE(free, x)
		if gok != wok || (gok && got != want) {
			t.Fatalf("minSubsetGE(%#x, %#x) = %#x,%v want %#x,%v", free, x, got, gok, want, wok)
		}
	}
}

// TestReduceSubsetMatchesFilteredScan asserts the masked sub-lattice walk
// is bit-for-bit identical to the dense scan that skips non-members: both
// visit member indices in increasing order through the same per-partition
// compensated accumulators.
func TestReduceSubsetMatchesFilteredScan(t *testing.T) {
	p := newTestPool(t)
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		nBits := 6 + r.Intn(5) // 64 .. 1024 states
		n := uint64(1) << uint(nBits)
		v := NewVector(p, n, 1+r.Intn(9))
		for i := uint64(0); i < n; i++ { // serial: Map's workers would share r
			v.Set(i, r.Float64())
		}
		full := n - 1
		free := r.Uint64() & full
		base := r.Uint64() & full &^ free
		got := v.ReduceSubset(base, free)
		want := v.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
			var acc prob.Accumulator
			for j := range data {
				s := offset + uint64(j)
				if s&^free == base {
					acc.Add(data[j])
				}
			}
			return acc
		})
		if got != want {
			t.Fatalf("trial %d (base %#x free %#x): sub-lattice %v vs filtered %v", trial, base, free, got, want)
		}
	}
}

func TestReduceSubsetPanics(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 16, 2)
	for name, args := range map[string][2]uint64{
		"overlap":      {1, 1},
		"out-of-range": {8, 8}, // base|free = 16 >= len
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			v.ReduceSubset(args[0], args[1])
		}()
	}
}

func TestShrinkGather(t *testing.T) {
	p := newTestPool(t)
	v := NewVector(p, 16, 4)
	v.Map(func(i uint64, _ float64) float64 { return float64(i) })
	// Forward monotone gather: keep the even positions.
	v.ShrinkGather(8, 2, func(dst, src []float64) {
		for i := range dst {
			dst[i] = src[2*i]
		}
	})
	if v.Len() != 8 || v.Parts() != 2 {
		t.Fatalf("len=%d parts=%d after shrink", v.Len(), v.Parts())
	}
	for i := uint64(0); i < 8; i++ {
		if v.At(i) != float64(2*i) {
			t.Fatalf("element %d = %v, want %v", i, v.At(i), float64(2*i))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("growing ShrinkGather did not panic")
			}
		}()
		v.ShrinkGather(9, 0, func(dst, src []float64) {})
	}()
}
