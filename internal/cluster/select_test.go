package cluster

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/lattice"
)

func TestPrefixNegMassesMatchesLocal(t *testing.T) {
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08}
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	pool := engine.NewPool(2)
	defer pool.Close()
	local, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	addrs := startExecutors(t, 3)
	dist := dialTest(t, addrs, risks, resp)
	for _, m := range []interface {
		Update(bitvec.Mask, dilution.Outcome) error
	}{local, dist} {
		if err := m.Update(bitvec.FromIndices(0, 1, 2), dilution.Positive); err != nil {
			t.Fatal(err)
		}
	}
	order := []int{3, 1, 5, 0}
	want := local.PrefixNegMasses(order)
	got, err := dist.PrefixNegMasses(order)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("prefix %d: %v vs %v", i, got[i], want[i])
		}
	}
	// Empty order is a no-op.
	if v, err := dist.PrefixNegMasses(nil); err != nil || v != nil {
		t.Fatalf("empty order: %v, %v", v, err)
	}
}

func TestPrefixScanValidation(t *testing.T) {
	e := NewExecutor(1)
	defer e.Close()
	if resp := e.dispatch(Request{Op: OpPrefix, Order: []int{0}}); resp.Err == "" {
		t.Error("prefix scan on unbuilt shard accepted")
	}
	if r := e.dispatch(Request{Op: OpBuildPrior, Risks: []float64{0.1, 0.2, 0.3}, Lo: 0, Hi: 8}); r.Err != "" {
		t.Fatal(r.Err)
	}
	if resp := e.dispatch(Request{Op: OpPrefix, Order: nil}); resp.Err == "" {
		t.Error("empty order accepted")
	}
	if resp := e.dispatch(Request{Op: OpPrefix, Order: []int{0, 0}}); resp.Err == "" {
		t.Error("duplicate subject accepted")
	}
	if resp := e.dispatch(Request{Op: OpPrefix, Order: []int{5}}); resp.Err == "" {
		t.Error("out-of-cohort subject accepted")
	}
}

// localReads is the reference side of the comparison below: the dense
// model's four selection reads. (posterior.Dense is the shipped form; this
// package cannot import it without a cycle.)
type localReads struct{ m *lattice.Model }

func (l localReads) N() int                        { return l.m.N() }
func (l localReads) Marginals() ([]float64, error) { return l.m.Marginals(), nil }
func (l localReads) NegMasses(c []bitvec.Mask) ([]float64, error) {
	return l.m.NegMasses(c), nil
}
func (l localReads) PrefixNegMasses(order []int) ([]float64, error) {
	return l.m.PrefixNegMasses(order), nil
}

func TestSelectOnClusterMatchesLocal(t *testing.T) {
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.12, 0.07}
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	pool := engine.NewPool(2)
	defer pool.Close()
	local, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	addrs := startExecutors(t, 2)
	dist := dialTest(t, addrs, risks, resp)
	if err := local.Update(bitvec.FromIndices(1, 3), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if err := dist.Update(bitvec.FromIndices(1, 3), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	want, err := halving.SelectOn(localReads{local}, halving.Options{MaxPool: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := halving.SelectOn(dist, halving.Options{MaxPool: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got.Pool != want.Pool {
		t.Fatalf("distributed selection %v, local %v", got.Pool, want.Pool)
	}
	if math.Abs(got.NegMass-want.NegMass) > 1e-12 {
		t.Fatalf("clean mass %v vs %v", got.NegMass, want.NegMass)
	}
}

func TestSelectOnSurfacesTransportError(t *testing.T) {
	// Kill the executors mid-session: the next selection must return an
	// error, not panic or hang.
	addrs := startExecutors(t, 1)
	m := dialTest(t, addrs, []float64{0.1, 0.2, 0.3}, dilution.Ideal{})
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	// One absorbed outcome takes the model off its prior, whose selection is
	// closed-form and would need no executor.
	if err := m.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	// Close the driver-side connections to simulate a dead link.
	for _, c := range m.conns {
		c.nc.Close()
	}
	if _, err := halving.SelectOn(m, halving.Options{}); err == nil {
		t.Fatal("selection over dead connections returned no error")
	}
}
