package engine

// InlineFor hands the serial side of Vector's policy to the external
// crossover benchmark, which times both sides of it.
func (p *Pool) InlineFor(n int, fn func(lo, hi int)) { p.inline(n, fn) }
