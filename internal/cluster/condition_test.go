package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/rng"
)

// kernelTol is the backend-agreement tolerance internal/posterior's
// conformance suite documents (absolute, on normalized masses).
const kernelTol = 1e-9

// wireBytes is the driver's traffic so far, both directions.
func wireBytes(m *Model) uint64 { return m.met.bytesSent.Value() + m.met.bytesRecv.Value() }

// rpcCount is how many RPCs of one op the driver has issued so far.
func rpcCount(m *Model, op Op) (n uint64) {
	for rank := range m.met.rpc {
		n += m.met.rpc[rank][op].Count()
	}
	return n
}

// allRPCs is how many RPCs of any op the driver has issued so far.
func allRPCs(m *Model) (n uint64) {
	for _, op := range allOps {
		n += rpcCount(m, op)
	}
	return n
}

// checkTiling asserts the connections own contiguous rank-ordered ranges
// that tile the whole lattice with sizes differing by at most one.
func checkTiling(t *testing.T, m *Model) {
	t.Helper()
	var next, small, large uint64 = 0, math.MaxUint64, 0
	for i, c := range m.conns {
		if c.lo != next || c.hi < c.lo {
			t.Fatalf("shard %d is [%d,%d), want it to start at %d", i, c.lo, c.hi, next)
		}
		next = c.hi
		small, large = min(small, c.hi-c.lo), max(large, c.hi-c.lo)
	}
	if next != uint64(1)<<uint(m.n) || large-small > 1 {
		t.Fatalf("shards cover [0,%d) of %d states with sizes %d..%d", next, uint64(1)<<uint(m.n), small, large)
	}
}

// TestConditionChainMatchesLattice is the property test of the shard-local
// collapse: random updates, then Condition down to one subject — every
// starting subject position, both statuses — against lattice.Condition on
// the same posterior. After every step the fetched posterior agrees within
// kernelTol and the shards tile the halved lattice evenly (empty shards
// once it has fewer states than executors); a collapse below the shard
// alignment of a power-of-two fan-out issues no fetch or load-shard and
// moves no shard bytes.
func TestConditionChainMatchesLattice(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	resp := dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.99, D: 0.3}
	for k := 1; k <= 5; k++ {
		addrs := startExecutors(t, k)
		for n := 2; n <= 10; n++ {
			if k > 1<<uint(n) {
				continue // Dial refuses more executors than states
			}
			for first := 0; first < 2*n; first++ {
				r := rng.New(uint64(1000*k + 100*n + first))
				risks := make([]float64, n)
				for i := range risks {
					risks[i] = 0.02 + 0.4*r.Float64()
				}
				local, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
				if err != nil {
					t.Fatal(err)
				}
				dist, err := DialWith(addrs, risks, resp, DialOptions{Timeout: 5 * time.Second, Obs: obs.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 3; round++ {
					pm := bitvec.Mask(r.Uint64())&bitvec.Full(n) | bitvec.FromIndices(r.Intn(n))
					y := dilution.Negative
					if r.Bool() {
						y = dilution.Positive
					}
					if err := local.Update(pm, y); err != nil {
						t.Fatal(err)
					}
					if err := dist.Update(pm, y); err != nil {
						t.Fatal(err)
					}
				}
				subject, positive := first/2, first%2 == 1
				for local.N() > 1 {
					name := fmt.Sprintf("k=%d n=%d first=%d: %d subjects, condition(%d,%v)", k, n, first, local.N(), subject, positive)
					shard := (uint64(1) << uint(local.N())) / uint64(k)
					aligned := k&(k-1) == 0 && uint64(1)<<uint(subject) < shard
					bytes, moves := wireBytes(dist), rpcCount(dist, OpFetch)+rpcCount(dist, OpLoadShard)

					local = local.ConditionInPlace(subject, positive)
					next, err := dist.Condition(subject, positive)
					if err != nil || next == nil || local == nil {
						t.Fatalf("%s: cluster %v/%v, lattice %v", name, next, err, local)
					}
					dist = next
					if aligned {
						if got := rpcCount(dist, OpFetch) + rpcCount(dist, OpLoadShard) - moves; got != 0 {
							t.Fatalf("%s: %d fetch/load-shard RPCs below the shard alignment", name, got)
						}
						// Two small rounds per executor; a shard state is 8 bytes.
						if got := wireBytes(dist) - bytes; got > uint64(200*k) {
							t.Fatalf("%s: %d bytes on the wire below the shard alignment", name, got)
						}
					}
					checkTiling(t, dist)
					post, err := dist.Fetch()
					if err != nil {
						t.Fatal(err)
					}
					if uint64(len(post)) != local.States() {
						t.Fatalf("%s: fetched %d states, want %d", name, len(post), local.States())
					}
					for s, got := range post {
						if want := local.StateMass(bitvec.Mask(s)); math.Abs(got-want) > kernelTol {
							t.Fatalf("%s: state %d = %v, lattice %v", name, s, got, want)
						}
					}
					subject, positive = r.Intn(local.N()), r.Bool()
				}
				if next, err := dist.Condition(0, false); next != nil || err != nil {
					t.Fatalf("k=%d n=%d: conditioning a one-subject lattice returned %v, %v", k, n, next, err)
				}
				dist.Close()
			}
		}
	}
}

// TestConditionZeroMassKeepsReceiver: a zero-mass event returns (nil, nil)
// before any shard is touched, so the receiver keeps answering and the
// complementary event still collapses it (core.Session.record's retry).
func TestConditionZeroMassKeepsReceiver(t *testing.T) {
	for k := 1; k <= 5; k++ {
		m := dialTest(t, startExecutors(t, k), uniform(6, 0.2), dilution.Ideal{})
		// An ideal negative test on subject 3 makes "3 infected" impossible.
		if err := m.Update(bitvec.FromIndices(3), dilution.Negative); err != nil {
			t.Fatal(err)
		}
		before, err := m.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		if next, err := m.Condition(3, true); next != nil || err != nil {
			t.Fatalf("k=%d: zero-mass event returned %v, %v", k, next, err)
		}
		after, err := m.Marginals()
		if err != nil {
			t.Fatalf("k=%d: receiver unusable after a rejected event: %v", k, err)
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("k=%d: marginal[%d] moved from %v to %v", k, i, before[i], after[i])
			}
		}
		next, err := m.Condition(3, false)
		if err != nil || next == nil {
			t.Fatalf("k=%d: complementary event returned %v, %v", k, next, err)
		}
		if mass, err := next.Mass(); err != nil || math.Abs(mass-1) > kernelTol || next.N() != 5 {
			t.Fatalf("k=%d: collapsed model has n=%d mass %v (%v)", k, next.N(), mass, err)
		}
		next.Close()
	}
}

// TestCollapseAndSpliceValidation: the executor rejects every malformed
// collapse, shard splice, likelihood table and scale factor without
// touching its shard; a collapse ignores Factor, which only OpScale reads.
func TestCollapseAndSpliceValidation(t *testing.T) {
	e := NewExecutor(1)
	defer e.Close()
	valid := Request{Op: OpCollapse, Pool: 2, Base: 2, Factor: math.NaN()}
	if resp := e.dispatch(valid); !strings.Contains(resp.Err, "no shard built") {
		t.Fatalf("collapse of an unbuilt shard: %q", resp.Err)
	}
	build := func(n int, lo, hi uint64) {
		t.Helper()
		if resp := e.dispatch(Request{Op: OpBuildPrior, Risks: uniform(n, 0.1), Lo: lo, Hi: hi}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	build(4, 4, 12)
	before := append([]float64(nil), e.data...)
	for name, req := range map[string]Request{
		"two-bit mask":        {Op: OpCollapse, Pool: 3, Base: 0, Factor: 1},
		"empty mask":          {Op: OpCollapse, Pool: 0, Base: 0, Factor: 1},
		"bit past cohort":     {Op: OpCollapse, Pool: 16, Base: 0, Factor: 1},
		"base off the bit":    {Op: OpCollapse, Pool: 2, Base: 1, Factor: 1},
		"collapse inverted":   {Op: OpCollapse, Pool: 2, Base: 2, Lo: 3, Hi: 1},
		"inverted range":      {Op: OpLoadShard, Lo: 9, Hi: 8},
		"range past lattice":  {Op: OpLoadShard, Lo: 8, Hi: 17, Data: make([]float64, 5)},
		"short payload":       {Op: OpLoadShard, Lo: 2, Hi: 12, Data: make([]float64, 1)},
		"long payload":        {Op: OpLoadShard, Lo: 6, Hi: 10, Data: make([]float64, 1)},
		"negative mass":       {Op: OpLoadShard, Lo: 3, Hi: 12, Data: []float64{-1}},
		"fetch inverted":      {Op: OpFetch, Lo: 8, Hi: 6},
		"short likelihood":    {Op: OpUpdateMul, Pool: 2, Lik: []float64{0.5}},
		"negative likelihood": {Op: OpUpdateMul, Pool: 2, Lik: []float64{0.5, -0.1}},
		"NaN likelihood":      {Op: OpUpdateMul, Pool: 2, Lik: []float64{math.NaN(), 0.5}},
		"infinite likelihood": {Op: OpUpdateMul, Pool: 2, Lik: []float64{0.5, math.Inf(1)}},
		"zero scale":          {Op: OpScale, Factor: 0},
		"negative scale":      {Op: OpScale, Factor: -2},
		"NaN scale":           {Op: OpScale, Factor: math.NaN()},
		"infinite scale":      {Op: OpScale, Factor: math.Inf(1)},
	} {
		if resp := e.dispatch(req); resp.Err == "" {
			t.Errorf("%s accepted", name)
		}
	}
	if e.n != 4 || e.lo != 4 || len(e.data) != 8 {
		t.Fatalf("rejected requests changed the shard: n=%d lo=%d len=%d", e.n, e.lo, len(e.data))
	}
	for j, w := range before {
		if e.data[j] != w {
			t.Fatalf("rejected requests changed state %d: %v, was %v", e.lo+uint64(j), e.data[j], w)
		}
	}
	resp := e.dispatch(valid)
	if resp.Err != "" || e.n != 3 || e.lo != 2 || len(e.data) != 4 {
		t.Fatalf("valid collapse: %q, n=%d lo=%d len=%d", resp.Err, e.n, e.lo, len(e.data))
	}
	// Unscaled survivors (states 6, 7, 10, 11 of the old shard), their
	// total and marginal partials, and with an empty range all of them.
	var wantSum float64
	for j, s := range []int{6, 7, 10, 11} {
		if e.data[j] != before[s-4] {
			t.Fatalf("survivor %d = %v, want state %d's %v", j, e.data[j], s, before[s-4])
		}
		wantSum += before[s-4]
	}
	wantVec := make([]float64, 3)
	lattice.AddMarginals(e.lo, e.data, wantVec)
	if math.Abs(resp.Sum-wantSum) > 1e-15 || len(resp.Vec) != 3 || len(resp.Data) != 4 {
		t.Fatalf("collapse answered Sum %v (want %v), Vec %v, Data %v", resp.Sum, wantSum, resp.Vec, resp.Data)
	}
	for i := range wantVec {
		if resp.Vec[i] != wantVec[i] {
			t.Fatalf("collapse marginal partials %v, want %v", resp.Vec, wantVec)
		}
	}
	// Splice: [2,6) re-based to [1,7) keeps its four states between the
	// payload's first and last.
	held := append([]float64(nil), e.data...)
	if resp := e.dispatch(Request{Op: OpLoadShard, Lo: 1, Hi: 7, Data: []float64{0.25, 0.5}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	want := append(append([]float64{0.25}, held...), 0.5)
	for j := range want {
		if e.lo != 1 || len(e.data) != len(want) || e.data[j] != want[j] {
			t.Fatalf("spliced shard at %d = %v, want %v", e.lo, e.data, want)
		}
	}
	// Fetch returns what lies outside a range: both ends, one end, all.
	for _, c := range []struct {
		lo, hi uint64
		want   []float64
	}{
		{2, 6, append([]float64{0.25}, 0.5)},
		{0, 4, want[3:]},
		{3, 99, want[:2]},
		{0, 0, want},
		{40, 40, want},
	} {
		got := e.dispatch(Request{Op: OpFetch, Lo: c.lo, Hi: c.hi}).Vec
		if len(got) != len(c.want) {
			t.Fatalf("fetch outside [%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("fetch outside [%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
			}
		}
	}
	build(1, 0, 2)
	if resp := e.dispatch(Request{Op: OpCollapse, Pool: 1, Base: 0, Factor: 1}); resp.Err == "" {
		t.Error("collapse of a one-subject lattice accepted")
	}
}

// BenchmarkClusterCondition times one distributed Condition at N=16 on 2
// and 3 loopback executors, collapsing the lowest subject (every state
// stays on its shard when K is a power of two) and the top one (the
// survivors all sit on the low executors, so the rebalancing move runs),
// and reports the bytes it put on the wire (wire-B/op) and the rounds it
// made (rpcs/op: the registry's per-op RPC counts over all ops, per
// executor): 1 when no state changes owner, 2 with the move. A threshold
// crossing sends no preflight. make bench-smoke runs it at -benchtime 1x.
func BenchmarkClusterCondition(b *testing.B) {
	const n = 16
	for _, k := range []int{2, 3} {
		addrs, stop, err := StartLocalObs(k, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer stop()
		for _, subject := range []int{0, n - 1} {
			b.Run(fmt.Sprintf("K=%d/bit=%d", k, subject), func(b *testing.B) {
				var bytes, rpcs uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := DialWith(addrs, uniform(n, 0.05), dilution.Ideal{}, DialOptions{Timeout: 5 * time.Second, Obs: obs.NewRegistry()})
					if err != nil {
						b.Fatal(err)
					}
					before, beforeRPCs := wireBytes(m), allRPCs(m)
					b.StartTimer()
					next, err := m.Condition(subject, false)
					b.StopTimer()
					if err != nil || next == nil {
						b.Fatalf("condition: %v, %v", next, err)
					}
					bytes += wireBytes(next) - before
					rpcs += allRPCs(next) - beforeRPCs
					next.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(bytes)/float64(b.N), "wire-B/op")
				b.ReportMetric(float64(rpcs)/float64(b.N*k), "rpcs/op")
			})
		}
	}
}

// TestSpentOrClosedModelRefuses: a model that has handed its connections to
// Condition's result, or been closed, answers every read, Update and
// Condition with an error that names why — the prior's closed forms and
// the held marginals included — instead of merging nothing from no
// executors into zeros.
func TestSpentOrClosedModelRefuses(t *testing.T) {
	addrs := startExecutors(t, 2)
	resp := dilution.Binary{Sens: 0.95, Spec: 0.99}
	check := func(what string, m *Model, cause string) {
		t.Helper()
		errs := map[string]error{}
		_, errs["Marginals"] = m.Marginals()
		_, errs["Entropy"] = m.Entropy()
		_, errs["Mass"] = m.Mass()
		_, errs["PrefixNegMasses"] = m.PrefixNegMasses([]int{1, 0})
		_, errs["NegMasses"] = m.NegMasses([]bitvec.Mask{1})
		_, errs["Fetch"] = m.Fetch()
		errs["Update"] = m.Update(bitvec.FromIndices(0), dilution.Negative)
		_, errs["Condition"] = m.Condition(0, false)
		for op, err := range errs {
			if err == nil || !strings.Contains(err.Error(), cause) {
				t.Errorf("%s: %s answered %v, want an error saying %q", what, op, err, cause)
			}
		}
	}
	atPrior := dialTest(t, addrs, uniform(4, 0.1), resp)
	atPrior.Close()
	check("closed at the prior", atPrior, "closed")

	m := dialTest(t, addrs, uniform(4, 0.1), resp)
	if err := m.Update(bitvec.FromIndices(0, 1), dilution.Positive); err != nil {
		t.Fatal(err)
	}
	next, err := m.Condition(2, false)
	if err != nil || next == nil {
		t.Fatalf("condition: %v, %v", next, err)
	}
	check("conditioned", m, "conditioned")
	next.Close()
	check("closed holding marginals", next, "closed")
}
