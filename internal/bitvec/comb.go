package bitvec

import "math/bits"

// Binomial returns C(n, k) using the multiplicative formula with running
// division. Every result for n <= 64 fits in uint64, but the intermediate
// product c·(n-i) can exceed 64 bits near the middle of the table, so the
// multiply-divide step goes through a 128-bit intermediate. It returns 0
// when k < 0 or k > n, matching the combinatorial convention. The
// calculator's binomial PMF is its one caller.
func Binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 0; i < k; i++ {
		// c·(n-i) is always divisible by i+1 (the running product holds
		// C(n, i+1) after the division), and the quotient fits in uint64,
		// so Div64's hi < divisor precondition holds.
		hi, lo := bits.Mul64(c, uint64(n-i))
		c, _ = bits.Div64(hi, lo, uint64(i+1))
	}
	return c
}
