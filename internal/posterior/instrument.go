package posterior

import (
	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/obs"
)

// instrumented decorates a Model with per-operation latency histograms,
// tagged by backend. It adds no behavior: every call delegates to the
// wrapped model, and Condition re-wraps its result so instrumentation
// survives sequential collapse.
type instrumented struct {
	m   Model
	reg *obs.Registry
	ops *opHists
}

// opHists is one decorator lineage's handles on
// sbgt_posterior_op_seconds{backend,op}: resolved when Instrument wraps a
// model and shared by every survivor Condition hands back, so a collapse
// looks nothing up.
type opHists struct {
	kind                                                              Kind
	update, marginals, negMasses, prefix, entropy, summary, condition *obs.Histogram
}

func newOpHists(reg *obs.Registry, kind Kind) *opHists {
	backend := obs.L("backend", string(kind))
	hist := func(op string) *obs.Histogram {
		return reg.Histogram("sbgt_posterior_op_seconds", nil, backend, obs.L("op", op))
	}
	return &opHists{
		kind:      kind,
		update:    hist("update"),
		marginals: hist("marginals"),
		negMasses: hist("neg_masses"),
		prefix:    hist("prefix_neg_masses"),
		entropy:   hist("entropy"),
		summary:   hist("summary"),
		condition: hist("condition"),
	}
}

// Instrument wraps m so that Update, Marginals, NegMasses,
// PrefixNegMasses, Entropy, Summary, and Condition report latency into
// sbgt_posterior_op_seconds{backend,op}. A nil registry (or nil model)
// returns m unchanged, so callers can wire instrumentation
// unconditionally. A model already instrumented against reg is returned
// as it is; wrapping one instrumented against another registry re-points
// it at reg instead of stacking decorators.
func Instrument(m Model, reg *obs.Registry) Model {
	if m == nil || reg == nil {
		return m
	}
	if w, ok := m.(*instrumented); ok {
		if w.reg == reg {
			return w
		}
		m = w.m
	}
	return &instrumented{m: m, reg: reg, ops: newOpHists(reg, m.Kind())}
}

// Base strips any instrumentation decorators from m, returning the
// underlying backend model. A backend-specific read (the look-ahead
// branch reads of Branches; trace propagation) is found on Base(m), never
// on m.
func Base(m Model) Model {
	for {
		u, ok := m.(interface{ Unwrap() Model })
		if !ok {
			return m
		}
		m = u.Unwrap()
	}
}

// Unwrap exposes the wrapped model, making the decorator transparent to
// Base and errors.As-style capability probes.
func (w *instrumented) Unwrap() Model { return w.m }

func (w *instrumented) N() int                      { return w.m.N() }
func (w *instrumented) Kind() Kind                  { return w.m.Kind() }
func (w *instrumented) Risks() []float64            { return w.m.Risks() }
func (w *instrumented) Response() dilution.Response { return w.m.Response() }
func (w *instrumented) Tests() int                  { return w.m.Tests() }

func (w *instrumented) Update(pool bitvec.Mask, y dilution.Outcome) error {
	stop := w.ops.update.Time()
	defer stop()
	return w.m.Update(pool, y)
}

func (w *instrumented) Marginals() ([]float64, error) {
	stop := w.ops.marginals.Time()
	defer stop()
	return w.m.Marginals()
}

func (w *instrumented) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	stop := w.ops.negMasses.Time()
	defer stop()
	return w.m.NegMasses(cands)
}

func (w *instrumented) PrefixNegMasses(order []int) ([]float64, error) {
	stop := w.ops.prefix.Time()
	defer stop()
	return w.m.PrefixNegMasses(order)
}

func (w *instrumented) Entropy() (float64, error) {
	stop := w.ops.entropy.Time()
	defer stop()
	return w.m.Entropy()
}

func (w *instrumented) Summary() (*Summary, error) {
	stop := w.ops.summary.Time()
	defer stop()
	return w.m.Summary()
}

func (w *instrumented) Condition(subject int, positive bool) (Model, error) {
	stop := w.ops.condition.Time()
	defer stop()
	next, err := w.m.Condition(subject, positive)
	if err != nil {
		return nil, err
	}
	if next == nil {
		// Zero-mass event or degenerate collapse: the receiver is unchanged
		// and still instrumented.
		return nil, nil
	}
	if next.Kind() != w.ops.kind {
		return Instrument(next, w.reg), nil
	}
	return &instrumented{m: next, reg: w.reg, ops: w.ops}, nil
}

func (w *instrumented) Snapshot() (*Snapshot, error) { return w.m.Snapshot() }

func (w *instrumented) Close() error { return w.m.Close() }
