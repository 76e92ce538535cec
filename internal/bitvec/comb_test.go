package bitvec

import "testing"

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{1, 1, 1},
		{5, 2, 10},
		{10, 5, 252},
		{52, 5, 2598960},
		{64, 32, 1832624140942590534},
		{4, 5, 0},
		{3, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	// Pascal's identity over the whole table we care about.
	for n := 1; n <= 64; n++ {
		for k := 1; k < n; k++ {
			if got, want := Binomial(n, k), Binomial(n-1, k-1)+Binomial(n-1, k); got != want {
				t.Fatalf("Pascal fails at C(%d,%d): %d != %d", n, k, got, want)
			}
		}
	}
}
