package engine

// InlineFor hands the serial side of Vector's policy to the external
// crossover benchmark, which times both sides of it.
func (p *Pool) InlineFor(n int, fn func(lo, hi int)) { p.inline(n, fn) }

// NewVector is a zero-filled vector of n elements, what the engine's
// tests build their vectors with.
func NewVector(pool *Pool, n uint64, parts int) *Vector {
	return VectorOver(pool, make([]float64, n), parts)
}
