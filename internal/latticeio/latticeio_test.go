package latticeio

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
)

func newTestPool(t *testing.T) *engine.Pool {
	t.Helper()
	p := engine.NewPool(2)
	t.Cleanup(p.Close)
	return p
}

// Save and Load compose the codec with the model it exists for: a dense
// posterior written from a lattice.Model and rebuilt by lattice.Restore,
// which is where a decoded posterior is validated and renormalized.
func Save(w io.Writer, m *lattice.Model) error {
	return SaveRaw(w, m.Risks(), m.Response(), m.Tests(), m.Posterior().Slice())
}

func Load(r io.Reader, pool *engine.Pool, parts int) (*lattice.Model, error) {
	risks, resp, tests, post, err := LoadRaw(r)
	if err != nil {
		return nil, err
	}
	return lattice.Restore(pool, lattice.Config{Risks: risks, Response: resp, Parts: parts}, post, tests)
}

func buildModel(t *testing.T, pool *engine.Pool, resp dilution.Response) *lattice.Model {
	t.Helper()
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08}
	m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
	if err != nil {
		t.Fatal(err)
	}
	// Make the posterior non-trivial.
	if err := m.Update(bitvec.FromIndices(0, 1, 2), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(bitvec.FromIndices(3, 4), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	pool := newTestPool(t)
	for _, resp := range []dilution.Response{
		dilution.Ideal{},
		dilution.Binary{Sens: 0.9, Spec: 0.97},
		dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.3},
		dilution.DefaultCt(),
	} {
		m := buildModel(t, pool, resp)
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: Save: %v", resp.Name(), err)
		}
		got, err := Load(&buf, pool, 0)
		if err != nil {
			t.Fatalf("%s: Load: %v", resp.Name(), err)
		}
		if got.N() != m.N() || got.Tests() != m.Tests() {
			t.Fatalf("%s: N/Tests mismatch: %d/%d vs %d/%d", resp.Name(), got.N(), got.Tests(), m.N(), m.Tests())
		}
		if got.Response().Name() != resp.Name() {
			t.Fatalf("%s: response round-tripped as %s", resp.Name(), got.Response().Name())
		}
		for s := uint64(0); s < m.States(); s++ {
			a, b := m.StateMass(bitvec.Mask(s)), got.StateMass(bitvec.Mask(s))
			if math.Abs(a-b) > 1e-15*math.Max(1, a) {
				t.Fatalf("%s: state %d: %v vs %v", resp.Name(), s, a, b)
			}
		}
		// The restored model must keep working.
		if err := got.Update(bitvec.FromIndices(5), dilution.Negative); err != nil {
			t.Fatalf("%s: post-restore update: %v", resp.Name(), err)
		}
	}
}

func TestRoundTripLargeCrossesChunks(t *testing.T) {
	pool := newTestPool(t)
	risks := make([]float64, 14) // 16384 states = 2 chunks
	for i := range risks {
		risks[i] = 0.07
	}
	m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.States() != m.States() {
		t.Fatalf("states %d vs %d", got.States(), m.States())
	}
	if math.Abs(got.Mass()-1) > 1e-9 {
		t.Fatalf("restored mass %v", got.Mass())
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	pool := newTestPool(t)
	if _, err := Load(strings.NewReader("NOTACKPTxxxxxxxxxxxx"), pool, 0); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	pool := newTestPool(t)
	m := buildModel(t, pool, dilution.Ideal{})
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 12, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut]), pool, 0); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	pool := newTestPool(t)
	m := buildModel(t, pool, dilution.Ideal{})
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(magic)] = 99 // clobber the version field
	if _, err := Load(bytes.NewReader(raw), pool, 0); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestLoadRejectsCorruptPosterior(t *testing.T) {
	pool := newTestPool(t)
	m := buildModel(t, pool, dilution.Ideal{})
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Plant a NaN in the last posterior slot (the tail of the file).
	for i := 0; i < 8; i++ {
		raw[len(raw)-8+i] = 0xff
	}
	if _, err := Load(bytes.NewReader(raw), pool, 0); err == nil {
		t.Fatal("NaN posterior accepted")
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	pool := newTestPool(t)
	m := buildModel(t, pool, dilution.Binary{Sens: 0.9, Spec: 0.98})
	var a, b bytes.Buffer
	if err := Save(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same model differ")
	}
}
