// Conformance suite for posterior backends: every Model implementation
// must pass the same scripted scenarios — kernel agreement against the
// dense reference, Condition ownership semantics, snapshot round-trips,
// and a full classification campaign through core.Session including a
// mid-campaign checkpoint save/resume. Adding a backend means adding one
// entry to backends() and making the suite green.
//
// The tests live in package posterior_test so they can drive the
// backends through core.Session without an import cycle.
package posterior_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// kernelTol bounds the disagreement between any backend and the dense
// reference on the reduction kernels. Dense and cluster differ only in
// summation association order (the cluster merges per-executor partials
// in rank order); sparse additionally truncates at conformanceEps, whose
// discarded mass is far below this tolerance on the test cohorts.
const kernelTol = 1e-9

// conformanceEps is the sparse truncation threshold used throughout the
// suite: tight enough that truncation error stays below kernelTol.
const conformanceEps = 1e-12

// backendCase opens one backend over the given prior. Each call returns
// a fresh model; the test owns it (Close or hand to a session).
type backendCase struct {
	kind posterior.Kind
	open func(t *testing.T, risks []float64, resp dilution.Response) posterior.Model
}

func backends(t *testing.T) []backendCase {
	t.Helper()
	pool := engine.NewPool(2)
	t.Cleanup(pool.Close)
	open := func(spec posterior.Spec) func(*testing.T, []float64, dilution.Response) posterior.Model {
		return func(t *testing.T, risks []float64, resp dilution.Response) posterior.Model {
			t.Helper()
			m, err := spec.Open(pool, risks, resp)
			if err != nil {
				t.Fatalf("open %s: %v", spec.Kind, err)
			}
			return m
		}
	}
	return []backendCase{
		{posterior.KindDense, open(posterior.Spec{Kind: posterior.KindDense})},
		{posterior.KindSparse, open(posterior.Spec{Kind: posterior.KindSparse, Eps: conformanceEps})},
		{posterior.KindCluster, open(posterior.Spec{
			Kind:           posterior.KindCluster,
			LocalExecutors: 2,
			ExecWorkers:    1,
			DialTimeout:    5 * time.Second,
		})},
	}
}

var (
	conformanceRisks = []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.12, 0.07}
	conformanceResp  = dilution.Binary{Sens: 0.95, Spec: 0.99}
)

// script is the fixed update sequence every kernel test replays.
var script = []struct {
	pool bitvec.Mask
	y    dilution.Outcome
}{
	{bitvec.FromIndices(0, 1, 2, 3), dilution.Positive},
	{bitvec.FromIndices(0, 1), dilution.Negative},
	{bitvec.FromIndices(2, 4, 6), dilution.Positive},
	{bitvec.FromIndices(5), dilution.Negative},
}

func replayScript(t *testing.T, m posterior.Model) {
	t.Helper()
	for i, s := range script {
		if err := m.Update(s.pool, s.y); err != nil {
			t.Fatalf("script update %d: %v", i, err)
		}
	}
}

// denseReference computes the ground-truth kernels on a plain lattice.
func denseReference(t *testing.T) *lattice.Model {
	t.Helper()
	pool := engine.NewPool(2)
	t.Cleanup(pool.Close)
	m, err := lattice.New(pool, lattice.Config{Risks: conformanceRisks, Response: conformanceResp})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range script {
		if err := m.Update(s.pool, s.y); err != nil {
			t.Fatalf("reference update %d: %v", i, err)
		}
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestConformanceKernels replays the update script on every backend and
// checks each reduction kernel against the dense reference.
func TestConformanceKernels(t *testing.T) {
	ref := denseReference(t)
	cands := []bitvec.Mask{
		bitvec.FromIndices(0),
		bitvec.FromIndices(1, 2),
		bitvec.FromIndices(3, 4, 5),
		bitvec.FromIndices(0, 6, 7),
	}
	order := []int{3, 1, 5, 0, 7}
	for _, bc := range backends(t) {
		bc := bc
		t.Run(string(bc.kind), func(t *testing.T) {
			m := bc.open(t, conformanceRisks, conformanceResp)
			defer m.Close() //lint:allow errcheck test teardown; assertions cover the live model
			if m.Kind() != bc.kind {
				t.Fatalf("Kind() = %s, want %s", m.Kind(), bc.kind)
			}
			if m.N() != len(conformanceRisks) {
				t.Fatalf("N() = %d, want %d", m.N(), len(conformanceRisks))
			}
			if got := m.Risks(); maxAbsDiff(got, conformanceRisks) > 0 {
				t.Fatalf("Risks() = %v, want the prior", got)
			}
			if m.Tests() != 0 {
				t.Fatalf("fresh model reports %d tests", m.Tests())
			}
			replayScript(t, m)
			if m.Tests() != len(script) {
				t.Fatalf("Tests() = %d after %d updates", m.Tests(), len(script))
			}

			marg, err := m.Marginals()
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(marg, ref.Marginals()); d > kernelTol {
				t.Fatalf("marginals off by %v", d)
			}
			neg, err := m.NegMasses(cands)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(neg, ref.NegMasses(cands)); d > kernelTol {
				t.Fatalf("neg masses off by %v", d)
			}
			pre, err := m.PrefixNegMasses(order)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(pre, ref.PrefixNegMasses(order)); d > kernelTol {
				t.Fatalf("prefix neg masses off by %v", d)
			}
			ent, err := m.Entropy()
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(ent - ref.Entropy()); d > kernelTol {
				t.Fatalf("entropy off by %v", d)
			}
			br := posterior.Branches(m)
			for t0 := 0; t0 <= len(branchPools); t0++ {
				pools := branchPools[:t0]
				masks, pos := branchTables(pools)
				rows, err := br.BranchMarginals(pools)
				if err != nil {
					t.Fatal(err)
				}
				want := append(ref.Marginals(), 1)
				if t0 > 0 {
					want = ref.BranchMarginals(masks, pos)
				}
				if d := maxAbsDiff(rows, want); len(rows) != len(want) || d > kernelTol {
					t.Fatalf("branch marginals over %d pools off by %v", t0, d)
				}
				clean, err := br.BranchPrefixNegMasses(pools, order)
				if err != nil {
					t.Fatal(err)
				}
				want = ref.PrefixNegMasses(order)
				if t0 > 0 {
					want = ref.BranchPrefixNegMasses(masks, pos, order)
				}
				if d := maxAbsDiff(clean, want); len(clean) != len(want) || d > kernelTol {
					t.Fatalf("branch prefix masses over %d pools off by %v", t0, d)
				}
			}

			sum, err := m.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(sum.Marginals, ref.Marginals()); d > kernelTol {
				t.Fatalf("summary marginals off by %v", d)
			}
			if d := math.Abs(sum.EntropyBits - ref.Entropy()); d > kernelTol {
				t.Fatalf("summary entropy off by %v", d)
			}
		})
	}
}

// branchPools are the look-ahead pools the kernel test reads the branches
// of, under conformanceResp.
var branchPools = []bitvec.Mask{bitvec.FromIndices(0, 1, 2, 3), bitvec.FromIndices(2, 4, 6), bitvec.FromIndices(7)}

// branchTables is pools' kernel form: masks and P(positive | k) tables.
func branchTables(pools []bitvec.Mask) ([]uint64, [][]float64) {
	masks, pos := make([]uint64, len(pools)), make([][]float64, len(pools))
	for j, p := range pools {
		masks[j] = uint64(p)
		for k := 0; k <= p.Count(); k++ {
			pos[j] = append(pos[j], dilution.PosProb(conformanceResp, k, p.Count()))
		}
	}
	return masks, pos
}

// TestBranchWeightsUnderCt: a look-ahead branch is weighted by the
// probability its pools read as it says, on every backend, and under a
// continuous readout too. For a pool of four subjects of risk 0.05, the
// positive branch weighs 1 − P(negative) = 1 − Σ_k Binom(k; 4, 0.05)·
// L(negative | k, 4) ≈ 0.186, not the density of a Ct reading.
func TestBranchWeightsUnderCt(t *testing.T) {
	resp := dilution.DefaultCt()
	pool := bitvec.FromIndices(0, 1, 2, 3)
	var neg float64
	for k := 0; k <= 4; k++ {
		neg += float64(bitvec.Binomial(4, k)) * math.Pow(0.05, float64(k)) * math.Pow(0.95, float64(4-k)) * resp.Likelihood(dilution.Negative, k, 4)
	}
	for _, bc := range backends(t) {
		t.Run(string(bc.kind), func(t *testing.T) {
			m := bc.open(t, workload.UniformRisks(8, 0.05), resp)
			defer m.Close() //lint:allow errcheck test teardown; assertions cover the live model
			rows, err := posterior.Branches(m).BranchMarginals([]bitvec.Mask{pool})
			if err != nil {
				t.Fatal(err)
			}
			if got := rows[8]; math.Abs(got-neg) > 1e-12 {
				t.Fatalf("negative branch weighs %v, want %v", got, neg)
			}
			if got := rows[17]; math.Abs(got-(1-neg)) > 1e-12 {
				t.Fatalf("positive branch weighs %v, want 1 − P(negative) = %v", got, 1-neg)
			}
		})
	}
}

// TestConformanceSummary pins the Summary contract on every backend: it is
// exactly (==) the backend's own Marginals then Entropy, read off a twin
// model driven by the same script, at the prior, after three updates and
// after a Condition. Through Instrument one Summary is one op="summary"
// observation and no marginals or entropy observation.
func TestConformanceSummary(t *testing.T) {
	for _, bc := range backends(t) {
		t.Run(string(bc.kind), func(t *testing.T) {
			m := bc.open(t, conformanceRisks, conformanceResp)
			twin := bc.open(t, conformanceRisks, conformanceResp)
			check := func(stage string) {
				t.Helper()
				sum, err := m.Summary()
				if err != nil {
					t.Fatal(err)
				}
				marg, err := twin.Marginals()
				if err != nil {
					t.Fatal(err)
				}
				ent, err := twin.Entropy()
				if err != nil {
					t.Fatal(err)
				}
				if len(sum.Marginals) != len(marg) {
					t.Fatalf("%s: summary has %d marginals, twin %d", stage, len(sum.Marginals), len(marg))
				}
				for i := range marg {
					if sum.Marginals[i] != marg[i] {
						t.Fatalf("%s: summary marginal %d = %v, twin %v", stage, i, sum.Marginals[i], marg[i])
					}
				}
				if sum.EntropyBits != ent {
					t.Fatalf("%s: summary entropy %v, twin %v", stage, sum.EntropyBits, ent)
				}
			}
			check("prior")
			for _, s := range script[:3] {
				if err := m.Update(s.pool, s.y); err != nil {
					t.Fatal(err)
				}
				if err := twin.Update(s.pool, s.y); err != nil {
					t.Fatal(err)
				}
			}
			check("updated")
			cond := func(m posterior.Model) posterior.Model {
				t.Helper()
				next, err := m.Condition(5, false)
				if err != nil || next == nil {
					t.Fatalf("condition: %v, %v", next, err)
				}
				return next
			}
			m, twin = cond(m), cond(twin)
			defer m.Close()    //lint:allow errcheck test teardown; assertions cover the live model
			defer twin.Close() //lint:allow errcheck test teardown; assertions cover the live model
			check("conditioned")

			reg := obs.NewRegistry()
			if _, err := posterior.Instrument(m, reg).Summary(); err != nil {
				t.Fatal(err)
			}
			snap, b := reg.Snapshot(), string(bc.kind)
			for op, want := range map[string]uint64{"summary": 1, "marginals": 0, "entropy": 0} {
				if got := opCount(snap, b, op); got != want {
					t.Errorf("one Summary recorded %d %s observations, want %d", got, op, want)
				}
			}
		})
	}
}

// TestConformanceCondition checks the Condition contract on every
// backend: invalid subjects return (nil, nil) with the receiver still
// usable, and a valid collapse transfers to a reduced model whose
// marginals match the dense reference conditioned the same way.
func TestConformanceCondition(t *testing.T) {
	// Reference: condition subject 5 negative on the dense lattice.
	refCond := denseReference(t).ConditionInPlace(5, false)
	if refCond == nil {
		t.Fatal("reference condition collapsed to nil")
	}
	for _, bc := range backends(t) {
		bc := bc
		t.Run(string(bc.kind), func(t *testing.T) {
			m := bc.open(t, conformanceRisks, conformanceResp)
			replayScript(t, m)

			// Out-of-range subjects: (nil, nil), receiver unharmed.
			for _, bad := range []int{-1, m.N()} {
				red, err := m.Condition(bad, true)
				if err != nil || red != nil {
					t.Fatalf("Condition(%d) = %v, %v; want nil, nil", bad, red, err)
				}
			}
			if _, err := m.Marginals(); err != nil {
				t.Fatalf("receiver unusable after rejected condition: %v", err)
			}

			red, err := m.Condition(5, false)
			if err != nil {
				t.Fatal(err)
			}
			if red == nil {
				t.Fatal("valid condition returned nil model")
			}
			defer red.Close() //lint:allow errcheck test teardown; assertions cover the live model
			if red.N() != len(conformanceRisks)-1 {
				t.Fatalf("reduced N = %d, want %d", red.N(), len(conformanceRisks)-1)
			}
			marg, err := red.Marginals()
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(marg, refCond.Marginals()); d > kernelTol {
				t.Fatalf("conditioned marginals off by %v", d)
			}
		})
	}
}

// TestConformanceZeroMassCondition: an event of zero mass is reached
// through the path below ½ — its held marginal says it may be empty, so
// its mass is summed before anything collapses — and returns (nil, nil)
// with the receiver untouched: its marginals unchanged and the
// complementary event still collapsing it (core.Session's fallback).
func TestConformanceZeroMassCondition(t *testing.T) {
	for _, bc := range backends(t) {
		bc := bc
		t.Run(string(bc.kind), func(t *testing.T) {
			m := bc.open(t, conformanceRisks, dilution.Ideal{})
			defer m.Close() //lint:allow errcheck test teardown; assertions cover the live model
			// An ideal negative test of subject 3 alone makes "3 infected" impossible.
			if err := m.Update(bitvec.FromIndices(3), dilution.Negative); err != nil {
				t.Fatal(err)
			}
			before, err := m.Marginals()
			if err != nil {
				t.Fatal(err)
			}
			if red, err := m.Condition(3, true); red != nil || err != nil {
				t.Fatalf("zero-mass event returned %v, %v; want nil, nil", red, err)
			}
			after, err := m.Marginals()
			if err != nil {
				t.Fatalf("receiver unusable after a zero-mass event: %v", err)
			}
			if d := maxAbsDiff(after, before); d != 0 {
				t.Fatalf("a refused event moved the marginals by %v", d)
			}
			red, err := m.Condition(3, false)
			if err != nil || red == nil {
				t.Fatalf("complementary event returned %v, %v", red, err)
			}
			marg, err := red.Marginals()
			if err != nil {
				t.Fatal(err)
			}
			want := append(append([]float64(nil), before[:3]...), before[4:]...)
			if d := maxAbsDiff(marg, want); d > kernelTol {
				t.Fatalf("conditioning on a sure event moved the other marginals by %v", d)
			}
		})
	}
}

// TestConformanceSnapshotRoundTrip snapshots every backend mid-script
// and restores through FromSnapshot: the restored marginals must match.
// Cluster snapshots are documented to restore as dense models.
func TestConformanceSnapshotRoundTrip(t *testing.T) {
	pool := engine.NewPool(2)
	t.Cleanup(pool.Close)
	for _, bc := range backends(t) {
		bc := bc
		t.Run(string(bc.kind), func(t *testing.T) {
			m := bc.open(t, conformanceRisks, conformanceResp)
			defer m.Close() //lint:allow errcheck test teardown; assertions cover the live model
			replayScript(t, m)
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Kind != bc.kind {
				t.Fatalf("snapshot kind %s, want %s", snap.Kind, bc.kind)
			}
			if snap.Tests != len(script) {
				t.Fatalf("snapshot records %d tests, want %d", snap.Tests, len(script))
			}
			restored, err := posterior.FromSnapshot(pool, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close() //lint:allow errcheck test teardown; assertions cover the live model
			wantKind := bc.kind
			if wantKind == posterior.KindCluster {
				wantKind = posterior.KindDense
			}
			if restored.Kind() != wantKind {
				t.Fatalf("restored kind %s, want %s", restored.Kind(), wantKind)
			}
			origMarg, err := m.Marginals()
			if err != nil {
				t.Fatal(err)
			}
			gotMarg, err := restored.Marginals()
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(gotMarg, origMarg); d > kernelTol {
				t.Fatalf("restored marginals off by %v", d)
			}
			if restored.Tests() != m.Tests() {
				t.Fatalf("restored tests %d, want %d", restored.Tests(), m.Tests())
			}
		})
	}
}

// campaign runs a full classification session on the given model with a
// deterministic (ideal-assay) oracle and returns the result.
func campaign(t *testing.T, model posterior.Model, truth bitvec.Mask) *core.Result {
	t.Helper()
	sess, err := core.NewSessionOn(model, core.Config{})
	if err != nil {
		model.Close() //lint:allow errcheck teardown on a constructor failure path; the construction error wins
		t.Fatal(err)
	}
	res, err := sess.Run(idealOracle(truth))
	if err != nil {
		sess.Close() //lint:allow errcheck teardown after a failed run; the run error wins
		t.Fatal(err)
	}
	return res
}

// idealOracle answers pooled tests from the fixed truth with the ideal
// assay: positive iff the pool intersects the infected set. Fully
// deterministic, so replays across backends and resumes are identical.
func idealOracle(truth bitvec.Mask) core.TestFunc {
	return func(pool bitvec.Mask) dilution.Outcome {
		if truth.IntersectCount(pool) > 0 {
			return dilution.Positive
		}
		return dilution.Negative
	}
}

// sessionPriorRisks is the cohort used for the session-level tests:
// moderately sized, non-uniform so halving has no exact ties.
func sessionPriorRisks() []float64 {
	return []float64{0.04, 0.21, 0.09, 0.33, 0.14, 0.07, 0.11, 0.06, 0.18, 0.05}
}

// TestConformanceSessionCampaign drives a complete campaign through
// core.Session on every backend. With the deterministic ideal oracle the
// three backends must classify every subject identically.
func TestConformanceSessionCampaign(t *testing.T) {
	risks := sessionPriorRisks()
	truth := workload.Draw(risks, rng.New(7)).Truth
	var want *core.Result
	for _, bc := range backends(t) {
		bc := bc
		t.Run(string(bc.kind), func(t *testing.T) {
			model := bc.open(t, risks, dilution.Ideal{})
			res := campaign(t, model, truth)
			if !res.Converged {
				t.Fatal("campaign did not converge")
			}
			if got := res.Positives(); got != truth {
				t.Fatalf("classified %v, truth %v", got, truth)
			}
			if want == nil {
				want = res
				return
			}
			if res.Tests != want.Tests || res.Stages != want.Stages {
				t.Fatalf("campaign shape tests=%d stages=%d, dense reference tests=%d stages=%d",
					res.Tests, res.Stages, want.Tests, want.Stages)
			}
			for i, c := range res.Classifications {
				w := want.Classifications[i]
				if c.Status != w.Status || c.Stage != w.Stage {
					t.Fatalf("subject %d: %s@%d, dense reference %s@%d", i, c.Status, c.Stage, w.Status, w.Stage)
				}
				if math.Abs(c.Marginal-w.Marginal) > 1e-6 {
					t.Fatalf("subject %d decision marginal %v, dense reference %v", i, c.Marginal, w.Marginal)
				}
			}
		})
	}
}

// TestConformanceSessionCheckpoint checkpoints a session mid-campaign on
// every backend, resumes it, and checks the resumed campaign finishes
// exactly like the uninterrupted one. Cluster checkpoints resume on the
// dense backend by design.
func TestConformanceSessionCheckpoint(t *testing.T) {
	pool := engine.NewPool(2)
	t.Cleanup(pool.Close)
	risks := sessionPriorRisks()
	truth := workload.Draw(risks, rng.New(11)).Truth
	for _, bc := range backends(t) {
		bc := bc
		t.Run(string(bc.kind), func(t *testing.T) {
			// The uninterrupted run is the reference.
			want := campaign(t, bc.open(t, risks, dilution.Ideal{}), truth)

			sess, err := core.NewSessionOn(bc.open(t, risks, dilution.Ideal{}), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			test := idealOracle(truth)
			for i := 0; i < 2 && !sess.Done(); i++ {
				if err := sess.Step(test); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := sess.SaveSession(&buf); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			resumed, err := core.LoadSession(&buf, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Done() {
				t.Fatal("resumed session already done")
			}
			wantKind := bc.kind
			if wantKind == posterior.KindCluster {
				wantKind = posterior.KindDense // documented resume behavior
			}
			if got := resumed.Model().Kind(); got != wantKind {
				t.Fatalf("resumed backend %s, want %s", got, wantKind)
			}
			res, err := resumed.Run(test)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tests != want.Tests || res.Stages != want.Stages {
				t.Fatalf("resumed run tests=%d stages=%d, uninterrupted tests=%d stages=%d",
					res.Tests, res.Stages, want.Tests, want.Stages)
			}
			if got := res.Positives(); got != want.Positives() {
				t.Fatalf("resumed positives %v, uninterrupted %v", got, want.Positives())
			}
			for i, c := range res.Classifications {
				w := want.Classifications[i]
				if c.Status != w.Status || c.Stage != w.Stage {
					t.Fatalf("subject %d: %s@%d, uninterrupted %s@%d", i, c.Status, c.Stage, w.Status, w.Stage)
				}
			}
		})
	}
}

// TestMaxSubjectsConsistency pins the per-representation cohort bounds
// and checks every constructor rejects out-of-range cohorts with an
// error (never a panic or a silent truncation).
func TestMaxSubjectsConsistency(t *testing.T) {
	if lattice.MaxSubjects != 30 || cluster.MaxSubjects != 30 {
		t.Fatalf("dense/cluster bounds diverged: lattice %d, cluster %d", lattice.MaxSubjects, cluster.MaxSubjects)
	}
	if sparse.MaxSubjects != bitvec.MaxSubjects {
		t.Fatalf("sparse bound %d, state-mask bound %d", sparse.MaxSubjects, bitvec.MaxSubjects)
	}
	resp := dilution.Ideal{}
	over := func(n int) []float64 {
		rs := make([]float64, n)
		for i := range rs {
			rs[i] = 0.05
		}
		return rs
	}
	pool := engine.NewPool(1)
	t.Cleanup(pool.Close)
	if _, err := lattice.New(pool, lattice.Config{Risks: over(lattice.MaxSubjects + 1), Response: resp}); err == nil {
		t.Error("lattice accepted an over-limit cohort")
	}
	// Dial validates the cohort before touching the network, so a bogus
	// address proves the rejection happens up front.
	if _, err := cluster.DialWith([]string{"127.0.0.1:1"}, over(cluster.MaxSubjects+1), resp, cluster.DialOptions{Timeout: time.Second}); err == nil {
		t.Error("cluster accepted an over-limit cohort")
	}
	if _, err := sparse.New(sparse.Config{Risks: over(sparse.MaxSubjects + 1), Response: resp, Eps: 1e-9}); err == nil {
		t.Error("sparse accepted an over-limit cohort")
	}
	// The same rejections surface through the backend spec.
	specs := []posterior.Spec{
		{Kind: posterior.KindDense},
		{Kind: posterior.KindCluster, Addrs: []string{"127.0.0.1:1"}, DialTimeout: time.Second},
		{Kind: posterior.KindSparse, Eps: 1e-9},
	}
	limits := []int{lattice.MaxSubjects, cluster.MaxSubjects, sparse.MaxSubjects}
	for i, spec := range specs {
		if _, err := spec.Open(pool, over(limits[i]+1), resp); err == nil {
			t.Errorf("spec %s accepted an over-limit cohort", spec.Kind)
		}
	}
}
