package analysis

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Concurrency, Floats, Errcheck, Obslog, Goroutineleak}
}

// ByName returns the named analyzers, or nil plus the first unknown name.
func ByName(names []string) ([]*Analyzer, string) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := index[n]
		if !ok {
			return nil, n
		}
		out = append(out, a)
	}
	return out, ""
}
