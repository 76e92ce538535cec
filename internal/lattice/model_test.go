package lattice

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/rng"
)

func newTestPool(t *testing.T) *engine.Pool {
	t.Helper()
	p := engine.NewPool(4)
	t.Cleanup(p.Close)
	return p
}

func uniformRisks(n int, p float64) []float64 {
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = p
	}
	return rs
}

func mustNew(t *testing.T, pool *engine.Pool, cfg Config) *Model {
	t.Helper()
	m, err := New(pool, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	pool := newTestPool(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty cohort", Config{Risks: nil, Response: dilution.Ideal{}}},
		{"too large", Config{Risks: uniformRisks(31, 0.1), Response: dilution.Ideal{}}},
		{"nil response", Config{Risks: uniformRisks(4, 0.1)}},
		{"risk zero", Config{Risks: []float64{0.1, 0}, Response: dilution.Ideal{}}},
		{"risk one", Config{Risks: []float64{0.1, 1}, Response: dilution.Ideal{}}},
		{"risk NaN", Config{Risks: []float64{math.NaN()}, Response: dilution.Ideal{}}},
	}
	for _, c := range cases {
		if _, err := New(pool, c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPriorIsProductMeasure(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.1, 0.3, 0.05, 0.2}
	m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if m.N() != 4 || m.States() != 16 {
		t.Fatalf("N=%d states=%d", m.N(), m.States())
	}
	for s := bitvec.Mask(0); s < 16; s++ {
		want := 1.0
		for i := 0; i < 4; i++ {
			if s.Has(i) {
				want *= risks[i]
			} else {
				want *= 1 - risks[i]
			}
		}
		if got := m.StateMass(s); math.Abs(got-want) > 1e-14 {
			t.Fatalf("prior(%v) = %v, want %v", s, got, want)
		}
	}
	if got := m.Mass(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("prior mass = %v", got)
	}
}

func TestPriorMarginalsMatchRisks(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.02, 0.5, 0.13, 0.4, 0.07, 0.25}
	m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Ideal{}})
	marg := m.Marginals()
	for i, p := range risks {
		if math.Abs(marg[i]-p) > 1e-12 {
			t.Errorf("marginal[%d] = %v, want %v", i, marg[i], p)
		}
	}
}

func TestUpdateIdealNegativeClearsPool(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(6, 0.2), Response: dilution.Ideal{}})
	poolMask := bitvec.FromIndices(0, 1, 2)
	if err := m.Update(poolMask, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	marg := m.Marginals()
	for i := 0; i < 3; i++ {
		if marg[i] != 0 {
			t.Errorf("marginal[%d] = %v after ideal negative", i, marg[i])
		}
	}
	for i := 3; i < 6; i++ {
		if math.Abs(marg[i]-0.2) > 1e-12 {
			t.Errorf("untested marginal[%d] = %v, want 0.2", i, marg[i])
		}
	}
	if got := m.Mass(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("mass = %v after update", got)
	}
	if m.Tests() != 1 {
		t.Errorf("Tests = %d", m.Tests())
	}
}

func TestUpdateIdealPositiveRaisesMarginals(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(5, 0.1), Response: dilution.Ideal{}})
	poolMask := bitvec.FromIndices(1, 3)
	if err := m.Update(poolMask, dilution.Positive); err != nil {
		t.Fatal(err)
	}
	marg := m.Marginals()
	// P(i | pool positive) = p / P(pool has a positive); with p=0.1 each,
	// P(pos) = 1 - 0.9^2 = 0.19, so marginal = 0.1/0.19.
	want := 0.1 / 0.19
	for _, i := range []int{1, 3} {
		if math.Abs(marg[i]-want) > 1e-12 {
			t.Errorf("marginal[%d] = %v, want %v", i, marg[i], want)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if math.Abs(marg[i]-0.1) > 1e-12 {
			t.Errorf("outside-pool marginal[%d] = %v, want 0.1", i, marg[i])
		}
	}
}

func TestUpdateMatchesBayesByHand(t *testing.T) {
	// Two subjects, noisy binary test on subject 0 alone.
	pool := newTestPool(t)
	resp := dilution.Binary{Sens: 0.8, Spec: 0.95}
	m := mustNew(t, pool, Config{Risks: []float64{0.3, 0.5}, Response: resp})
	if err := m.Update(bitvec.FromIndices(0), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	// P(+|infected)=0.8, P(+|clean)=0.05.
	wantPost := (0.3 * 0.8) / (0.3*0.8 + 0.7*0.05)
	marg := m.Marginals()
	if math.Abs(marg[0]-wantPost) > 1e-12 {
		t.Fatalf("posterior[0] = %v, want %v", marg[0], wantPost)
	}
	if math.Abs(marg[1]-0.5) > 1e-12 {
		t.Fatalf("posterior[1] = %v, want unchanged 0.5", marg[1])
	}
}

func TestUpdateErrors(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(4, 0.1), Response: dilution.Ideal{}})
	if err := m.Update(0, dilution.Positive); err == nil {
		t.Error("empty pool accepted")
	}
	if err := m.Update(bitvec.FromIndices(5), dilution.Positive); err == nil {
		t.Error("out-of-cohort pool accepted")
	}
	if m.Tests() != 0 {
		t.Errorf("failed updates incremented Tests to %d", m.Tests())
	}
}

func TestUpdateZeroLikelihoodRejectedAndStateRecoverable(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(3, 0.2), Response: dilution.Ideal{}})
	pm := bitvec.FromIndices(0, 1, 2)
	if err := m.Update(pm, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	// All subjects now certainly negative; a positive on the same pool is
	// impossible under the ideal response.
	if err := m.Update(pm, dilution.Positive); err == nil {
		t.Fatal("impossible outcome accepted")
	}
	// The failed update zeroed the working vector; the error contract says
	// the model is unusable only for that observation — mass must still be
	// renormalizable by the caller discarding. Here we just document that
	// the failure is detected and Tests was not incremented.
	if m.Tests() != 1 {
		t.Errorf("Tests = %d after rejected update", m.Tests())
	}
}

func TestUpdateTwoPassMatchesFused(t *testing.T) {
	pool := newTestPool(t)
	resp := dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.98, D: 0.3}
	a := mustNew(t, pool, Config{Risks: uniformRisks(8, 0.15), Response: resp})
	b := mustNew(t, pool, Config{Risks: uniformRisks(8, 0.15), Response: resp})
	pm := bitvec.FromIndices(0, 2, 4, 6)
	if err := a.Update(pm, dilution.Positive); err != nil {
		t.Fatal(err)
	}
	updateTwoPass(b, pm, dilution.Positive)
	for s := uint64(0); s < a.States(); s++ {
		x, y := a.StateMass(bitvec.Mask(s)), b.StateMass(bitvec.Mask(s))
		if math.Abs(x-y) > 1e-14*math.Max(1, x) {
			t.Fatalf("state %d: fused %v vs two-pass %v", s, x, y)
		}
	}
}

func TestSequentialUpdatesConsistent(t *testing.T) {
	// Order of conditionally independent test outcomes must not matter.
	pool := newTestPool(t)
	resp := dilution.Binary{Sens: 0.9, Spec: 0.97}
	mk := func() *Model {
		return mustNew(t, pool, Config{Risks: uniformRisks(6, 0.2), Response: resp})
	}
	pa, pb := bitvec.FromIndices(0, 1, 2), bitvec.FromIndices(3, 4)
	m1 := mk()
	if err := m1.Update(pa, dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if err := m1.Update(pb, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	m2 := mk()
	if err := m2.Update(pb, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	if err := m2.Update(pa, dilution.Positive); err != nil {
		t.Fatal(err)
	}
	g1, g2 := m1.Marginals(), m2.Marginals()
	for i := range g1 {
		if math.Abs(g1[i]-g2[i]) > 1e-12 {
			t.Fatalf("order dependence at subject %d: %v vs %v", i, g1[i], g2[i])
		}
	}
}

func TestAccessorsAndRestore(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.1, 0.3, 0.2}
	resp := dilution.Binary{Sens: 0.9, Spec: 0.98}
	m := mustNew(t, pool, Config{Risks: risks, Response: resp})
	if m.Response().Name() != resp.Name() {
		t.Errorf("Response = %s", m.Response().Name())
	}
	got := m.Risks()
	got[0] = 0.9 // must be a copy
	if m.Risks()[0] != 0.1 {
		t.Error("Risks aliases internal state")
	}
	if m.Posterior().Len() != 8 {
		t.Errorf("Posterior len %d", m.Posterior().Len())
	}
	// Round-trip through Restore.
	if err := m.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	post := m.Posterior().Slice()
	r, err := Restore(pool, Config{Risks: risks, Response: resp}, post, m.Tests())
	if err != nil {
		t.Fatal(err)
	}
	if r.Tests() != m.Tests() {
		t.Errorf("restored Tests = %d", r.Tests())
	}
	for s := bitvec.Mask(0); s < 8; s++ {
		if math.Abs(r.StateMass(s)-m.StateMass(s)) > 1e-15 {
			t.Fatalf("state %v: %v vs %v", s, r.StateMass(s), m.StateMass(s))
		}
	}
	// Restore validation.
	if _, err := Restore(pool, Config{Risks: risks, Response: resp}, post[:4], 0); err == nil {
		t.Error("short posterior accepted")
	}
	bad := append([]float64(nil), post...)
	bad[2] = math.NaN()
	if _, err := Restore(pool, Config{Risks: risks, Response: resp}, bad, 0); err == nil {
		t.Error("NaN posterior accepted")
	}
	zero := make([]float64, 8)
	if _, err := Restore(pool, Config{Risks: risks, Response: resp}, zero, 0); err == nil {
		t.Error("zero-mass posterior accepted")
	}
	if _, err := Restore(pool, Config{Risks: risks, Response: resp}, post, -1); err == nil {
		t.Error("negative test count accepted")
	}
	// Restore fills the model from the checkpoint without building a prior,
	// but the cohort must still pass the checks New makes.
	if _, err := Restore(pool, Config{Risks: []float64{0.1, 1, 0.2}, Response: resp}, post, 0); err == nil {
		t.Error("risk of 1 accepted")
	}
	if _, err := Restore(pool, Config{Risks: risks}, post, 0); err == nil {
		t.Error("nil response accepted")
	}
	if _, err := Restore(pool, Config{Response: resp}, nil, 0); err == nil {
		t.Error("empty cohort accepted")
	}
}

// TestFailedUpdateLeavesPosteriorIntact: an outcome the posterior gives no
// mass must be refused before anything is multiplied. With the ideal
// assay, a negative test on subject 0 rules its infection out, so a
// positive test on the same pool has zero likelihood everywhere: the
// update fails, and the model the session still holds is unchanged.
func TestFailedUpdateLeavesPosteriorIntact(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: []float64{0.1, 0.3, 0.2, 0.15}, Response: dilution.Ideal{}, Parts: 3})
	only0 := bitvec.FromIndices(0)
	if err := m.Update(only0, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	before := m.Marginals()
	if err := m.Update(only0, dilution.Positive); err == nil {
		t.Fatal("an impossible outcome was absorbed")
	}
	if m.Tests() != 1 {
		t.Fatalf("failed update counted: %d tests", m.Tests())
	}
	after := m.Marginals()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("marginal %d moved from %v to %v across a failed update", i, before[i], after[i])
		}
	}
	if mass := m.Mass(); math.Abs(mass-1) > 1e-12 {
		t.Fatalf("mass %v after a failed update", mass)
	}
	// The model is still usable.
	if err := m.Update(bitvec.FromIndices(1, 2), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if mass := m.Mass(); math.Abs(mass-1) > 1e-12 {
		t.Fatalf("mass %v after the next update", mass)
	}
}

// sweptDigest reads marginals and entropy (bits) off the settled vector
// with the kernels themselves, whatever the model's flags say.
func sweptDigest(m *Model) (marg []float64, entropy float64) {
	post := m.settle().Slice()
	marg = make([]float64, m.n)
	AddMarginals(0, post, marg)
	nats := EntropyNats(post)
	return marg, nats.Value() / math.Ln2
}

// TestPriorClosedFormMatchesSweep: a fresh model answers Marginals and
// Entropy from its risks; both must be what a sweep of the lattice finds.
// Anything that is not the product prior New built — a restored posterior
// (even with zero tests), a model after one Update or one Condition — must
// be swept.
func TestPriorClosedFormMatchesSweep(t *testing.T) {
	pool := newTestPool(t)
	r := rng.New(909)
	check := func(what string, m *Model, wantPrior bool) {
		t.Helper()
		if m.prior != wantPrior {
			t.Fatalf("%s: prior flag %v, want %v", what, m.prior, wantPrior)
		}
		marg, ent := m.Marginals(), m.Entropy()
		wantMarg, wantEnt := sweptDigest(m)
		for i := range wantMarg {
			if math.Abs(marg[i]-wantMarg[i]) > 1e-12 {
				t.Fatalf("%s: marginal %d = %v, swept %v", what, i, marg[i], wantMarg[i])
			}
		}
		if math.Abs(ent-wantEnt) > 1e-12*math.Max(1, wantEnt) {
			t.Fatalf("%s: entropy %v, swept %v", what, ent, wantEnt)
		}
	}
	for n := 1; n <= 14; n++ {
		risks := make([]float64, n)
		for i := range risks {
			risks[i] = 0.01 + 0.9*r.Float64()
		}
		cfg := Config{Risks: risks, Response: dilution.Binary{Sens: 0.93, Spec: 0.98}, Parts: 1 + n%4}
		check("prior", mustNew(t, pool, cfg), true)

		// A checkpoint of a posterior that is no product measure, tests == 0.
		post := mustNew(t, pool, cfg).Posterior().Slice()
		for s := range post {
			post[s] *= 0.5 + r.Float64()
		}
		restored, err := Restore(pool, cfg, post, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("restored", restored, false)
		if n > 1 {
			if marg := restored.Marginals(); math.Abs(marg[0]-risks[0]) < 1e-9 {
				t.Fatalf("n=%d: the perturbed posterior still has the prior's marginal", n)
			}
		}

		updated := mustNew(t, pool, cfg)
		if err := updated.Update(bitvec.Full(n), dilution.Positive); err != nil {
			t.Fatal(err)
		}
		check("updated", updated, false)
		if marg := updated.Marginals(); !(marg[0] > risks[0]) {
			t.Fatalf("n=%d: a positive pool left marginal 0 at %v (risk %v)", n, marg[0], risks[0])
		}
		if n > 1 {
			check("conditioned", mustNew(t, pool, cfg).ConditionInPlace(r.Intn(n), r.Bool()), false)
		}
	}
}

// TestWriteStatesIsARead: WriteStates writes the settled posterior's bytes
// — a copy's Posterior(), as little-endian float64s — through any chunk,
// one state or many partitions' worth, and leaves the model's storage,
// carried scale and held marginals bit for bit as they were.
func TestWriteStatesIsARead(t *testing.T) {
	pool := newTestPool(t)
	cfg := Config{Risks: []float64{0.1, 0.3, 0.2, 0.05, 0.15, 0.25, 0.4}, Response: dilution.Binary{Sens: 0.9, Spec: 0.97}, Parts: 3}
	m := mustNew(t, pool, cfg)
	if err := m.Update(bitvec.FromIndices(0, 2, 5), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if m.scale == 1 || m.marg == nil {
		t.Fatal("the model carries no scale or holds no marginals to keep")
	}
	stored, scale, marg := m.post.Slice(), m.scale, append([]float64(nil), m.marg...)
	var want []byte
	for _, x := range cloneModel(m).Posterior().Slice() {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
	}
	for _, chunk := range []int{0, 8, 40, 8 << 7, 8 << 10} {
		var out bytes.Buffer
		if err := m.WriteStates(&out, make([]byte, chunk)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("a %d-byte chunk wrote %d bytes unlike the settled posterior's %d", chunk, out.Len(), len(want))
		}
	}
	if math.Float64bits(m.scale) != math.Float64bits(scale) || !bitsEqual(m.post.Slice(), stored) || !bitsEqual(m.marg, marg) {
		t.Fatal("WriteStates changed the model's storage, scale or held marginals")
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRestoreAdoptsPosterior: Restore keeps the slice it is handed as the
// model's storage instead of copying it, and reads it as it was handed
// over: the restored posterior equals the saved one.
func TestRestoreAdoptsPosterior(t *testing.T) {
	pool := newTestPool(t)
	cfg := Config{Risks: []float64{0.1, 0.3, 0.2, 0.05, 0.15}, Response: dilution.Binary{Sens: 0.9, Spec: 0.97}, Parts: 3}
	m := mustNew(t, pool, cfg)
	if err := m.Update(bitvec.FromIndices(1, 3), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	post := m.Posterior().Slice()
	want := append([]float64(nil), post...)
	r, err := Restore(pool, cfg, post, m.Tests())
	if err != nil {
		t.Fatal(err)
	}
	if _, data := r.post.Partition(0); &data[0] != &post[0] {
		t.Fatal("Restore copied the posterior it was handed")
	}
	for s, w := range want {
		if got := r.StateMass(bitvec.Mask(s)); math.Abs(got-w) > 1e-15 {
			t.Fatalf("state %d restored as %v, saved %v", s, got, w)
		}
	}
}
