package cluster

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/prob"
	"repro/internal/rng"
)

// startExecutors launches k in-process executors on loopback and returns
// their addresses. Cleanup shuts everything down.
func startExecutors(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(2)
		go func() { _ = e.Serve(l) }()
		t.Cleanup(func() {
			l.Close()
			e.Close()
		})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func dialTest(t *testing.T, addrs []string, risks []float64, resp dilution.Response) *Model {
	t.Helper()
	m, err := DialWith(addrs, risks, resp, DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func uniform(n int, p float64) []float64 {
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = p
	}
	return rs
}

func TestDialValidation(t *testing.T) {
	addrs := startExecutors(t, 1)
	if _, err := DialWith(nil, uniform(4, 0.1), dilution.Ideal{}, DialOptions{Timeout: time.Second}); err == nil {
		t.Error("no executors accepted")
	}
	if _, err := DialWith(addrs, nil, dilution.Ideal{}, DialOptions{Timeout: time.Second}); err == nil {
		t.Error("empty cohort accepted")
	}
	if _, err := DialWith(addrs, uniform(4, 0.1), nil, DialOptions{Timeout: time.Second}); err == nil {
		t.Error("nil response accepted")
	}
	if _, err := DialWith([]string{"127.0.0.1:1"}, uniform(4, 0.1), dilution.Ideal{}, DialOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Error("unreachable executor accepted")
	}
	if _, err := DialWith(addrs, []float64{0.1, 1.5}, dilution.Ideal{}, DialOptions{Timeout: time.Second}); err == nil {
		t.Error("invalid risk accepted")
	}
}

func TestPingAndShards(t *testing.T) {
	addrs := startExecutors(t, 3)
	m := dialTest(t, addrs, uniform(8, 0.1), dilution.Ideal{})
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	if len(m.conns) != 3 || m.N() != 8 {
		t.Fatalf("executors=%d n=%d", len(m.conns), m.N())
	}
	// Shards must partition [0, 2^8).
	var covered uint64
	for _, c := range m.conns {
		if c.lo != covered {
			t.Fatalf("shard gap at %d", covered)
		}
		covered = c.hi
	}
	if covered != 256 {
		t.Fatalf("shards cover %d states", covered)
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	// The load-bearing test: the distributed model must agree with the
	// local engine-backed model on every quantity after a realistic
	// update sequence, for 1..4 executors.
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.25, 0.12}
	resp := dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.99, D: 0.3}
	pool := engine.NewPool(2)
	defer pool.Close()

	for _, execs := range []int{1, 2, 3, 4} {
		local, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
		if err != nil {
			t.Fatal(err)
		}
		addrs := startExecutors(t, execs)
		dist := dialTest(t, addrs, risks, resp)

		r := rng.New(uint64(execs))
		for round := 0; round < 5; round++ {
			pm := bitvec.Mask(r.Uint64() & 0xff)
			if pm == 0 {
				pm = bitvec.FromIndices(round % 8)
			}
			y := dilution.Negative
			if r.Bool() {
				y = dilution.Positive
			}
			errL := local.Update(pm, y)
			errD := dist.Update(pm, y)
			if (errL == nil) != (errD == nil) {
				t.Fatalf("execs=%d round %d: error divergence %v vs %v", execs, round, errL, errD)
			}
			if errL != nil {
				break
			}
		}

		lm := local.Marginals()
		dm, err := dist.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		for i := range lm {
			if math.Abs(lm[i]-dm[i]) > 1e-10 {
				t.Fatalf("execs=%d: marginal[%d] %v vs %v", execs, i, lm[i], dm[i])
			}
		}
		le := local.Entropy()
		de, err := dist.Entropy()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(le-de) > 1e-9 {
			t.Fatalf("execs=%d: entropy %v vs %v", execs, le, de)
		}
		probe := bitvec.FromIndices(1, 3, 5)
		ln := local.NegMasses([]bitvec.Mask{probe})[0]
		dn, err := dist.NegMasses([]bitvec.Mask{probe})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ln-dn[0]) > 1e-12 {
			t.Fatalf("execs=%d: negmass %v vs %v", execs, ln, dn[0])
		}
		cands := []bitvec.Mask{bitvec.FromIndices(0), bitvec.FromIndices(0, 1), bitvec.FromIndices(2, 4, 6)}
		lnm := local.NegMasses(cands)
		dnm, err := dist.NegMasses(cands)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cands {
			if math.Abs(lnm[i]-dnm[i]) > 1e-12 {
				t.Fatalf("execs=%d: negmasses[%d] %v vs %v", execs, i, lnm[i], dnm[i])
			}
		}
		dmass, err := dist.Mass()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dmass-1) > 1e-9 {
			t.Fatalf("execs=%d: mass %v", execs, dmass)
		}
		// Full posterior agreement via Fetch.
		post, err := dist.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if len(post) != 256 {
			t.Fatalf("Fetch returned %d states", len(post))
		}
		for s := range post {
			want := local.StateMass(bitvec.Mask(s))
			if math.Abs(post[s]-want) > 1e-12*math.Max(1, want) {
				t.Fatalf("execs=%d: state %d %v vs %v", execs, s, post[s], want)
			}
		}
	}
}

func TestUpdateErrorsRemote(t *testing.T) {
	addrs := startExecutors(t, 2)
	m := dialTest(t, addrs, uniform(5, 0.2), dilution.Ideal{})
	if err := m.Update(0, dilution.Positive); err == nil {
		t.Error("empty pool accepted")
	}
	if err := m.Update(bitvec.FromIndices(7), dilution.Positive); err == nil {
		t.Error("out-of-cohort pool accepted")
	}
	pm := bitvec.Full(5)
	if err := m.Update(pm, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(pm, dilution.Positive); err == nil {
		t.Error("impossible outcome accepted")
	}
	if m.Tests() != 1 {
		t.Errorf("Tests = %d", m.Tests())
	}
}

// TestFailedUpdateLeavesShardsIntact: an outcome with zero likelihood under
// every state must be refused with the distributed posterior untouched, as
// lattice.Model.Update refuses it — the table has a zero entry, so the
// driver looks (OpDotLik) before any executor multiplies. An ideal negative
// test on subject 0 followed by an ideal positive one is such an outcome;
// before the look it zeroed every shard and only then reported the error.
func TestFailedUpdateLeavesShardsIntact(t *testing.T) {
	m := dialTest(t, startExecutors(t, 2), uniform(5, 0.2), dilution.Ideal{})
	pm := bitvec.FromIndices(0)
	if err := m.Update(pm, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	before, err := m.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(pm, dilution.Positive); err == nil || !strings.Contains(err.Error(), "zero total likelihood") {
		t.Fatalf("impossible outcome: %v", err)
	}
	if mass, err := m.Mass(); err != nil || math.Abs(mass-1) > 1e-12 {
		t.Fatalf("mass after the refused update: %v, %v", mass, err)
	}
	for _, held := range []bool{true, false} {
		after, err := m.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if held && after[i] != before[i] || math.Abs(after[i]-before[i]) > 1e-15 {
				t.Fatalf("marginal %d = %v after the refused update (held %v), %v before", i, after[i], held, before[i])
			}
		}
		m.marg = nil // and once more, swept off the (settled) shards
	}
	if m.Tests() != 1 {
		t.Fatalf("Tests = %d after one absorbed and one refused outcome", m.Tests())
	}
}

func TestKernelBeforeBuildFails(t *testing.T) {
	// Direct executor-level check: ops on an unbuilt shard must error,
	// not crash.
	e := NewExecutor(1)
	defer e.Close()
	for _, op := range []Op{OpUpdateMul, OpDotLik, OpSumWhere, OpMarginals, OpEntropy, OpMass, OpFetch, OpLoadShard, OpCollapse} {
		resp := e.dispatch(Request{Op: op, Pool: 1, Lik: []float64{1, 1}})
		if resp.Err == "" {
			t.Errorf("op %s on unbuilt shard did not error", op)
		}
	}
}

func TestDispatchValidation(t *testing.T) {
	e := NewExecutor(1)
	defer e.Close()
	if resp := e.dispatch(Request{Op: OpBuildPrior, Risks: uniform(4, 0.1), Lo: 10, Hi: 5}); resp.Err == "" {
		t.Error("inverted shard range accepted")
	}
	if resp := e.dispatch(Request{Op: OpBuildPrior, Risks: uniform(4, 0.1), Lo: 0, Hi: 17}); resp.Err == "" {
		t.Error("oversized shard range accepted")
	}
	ok := e.dispatch(Request{Op: OpBuildPrior, Risks: uniform(4, 0.1), Lo: 0, Hi: 16})
	if ok.Err != "" {
		t.Fatalf("valid build failed: %s", ok.Err)
	}
	for _, op := range []Op{OpUpdateMul, OpDotLik} {
		if resp := e.dispatch(Request{Op: op, Pool: 0b11, Lik: []float64{1}}); resp.Err == "" {
			t.Errorf("%s: short likelihood table accepted", op)
		}
		if resp := e.dispatch(Request{Op: op, Pool: 0b11, Lik: []float64{1, math.NaN(), 1}}); resp.Err == "" {
			t.Errorf("%s: NaN likelihood accepted", op)
		}
	}
	if resp := e.dispatch(Request{Op: OpScale, Factor: math.NaN()}); resp.Err == "" {
		t.Error("NaN scale accepted")
	}
	if resp := e.dispatch(Request{Op: OpNegMasses}); resp.Err == "" {
		t.Error("empty candidate scan accepted")
	}
	if resp := e.dispatch(Request{Op: Op(200)}); resp.Err == "" {
		t.Error("unknown op accepted")
	}
}

func TestDriverReconnectAfterClose(t *testing.T) {
	// Executors survive a driver disconnect: a second Dial must succeed
	// and rebuild the shard.
	addrs := startExecutors(t, 2)
	m1 := dialTest(t, addrs, uniform(6, 0.1), dilution.Ideal{})
	if err := m1.Update(bitvec.FromIndices(0, 1), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	m2 := dialTest(t, addrs, uniform(6, 0.1), dilution.Ideal{})
	mass, err := m2.Mass()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("rebuilt prior mass = %v", mass)
	}
	// Fresh prior, not the conditioned posterior from m1.
	marg, err := m2.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(marg[0]-0.1) > 1e-9 {
		t.Fatalf("marginal after reconnect = %v, want prior 0.1", marg[0])
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpPing; op <= OpDotLik; op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("op %d has no name", op)
		}
	}
	if got := Op(250).String(); got != "op(250)" {
		t.Errorf("unknown op string = %q", got)
	}
}

// TestOneExecutorBitIdenticalToDense pins the kernel layer's claim that
// both backends execute the same instructions: a one-executor cluster
// (one shard, one reduceChunks chunk at N <= 14) and a one-partition dense
// model share every kernel and have the same reduction shape, so across a
// seeded 30-update campaign with two conditionings they must agree with
// == — not a tolerance — on the posterior, the marginals, the entropy, the
// prefix scan and the candidate scan. Both carry
// their normaliser as a scalar and must fold it the same way: on every
// third step two updates and a condition run back to back with only
// Marginals and PrefixNegMasses read in between, so the comparison is of
// the un-settled path, before the settled readers below apply the scale.
func TestOneExecutorBitIdenticalToDense(t *testing.T) {
	const n = 14
	r := rng.New(1717)
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.02 + 0.3*r.Float64()
	}
	resp := dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.99, D: 0.35}
	pool := engine.NewPool(2)
	defer pool.Close()
	local, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp, Parts: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist := dialTest(t, startExecutors(t, 1), risks, resp)

	same := func(step int, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("step %d: %s has %d entries, dense %d", step, what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: %s[%d] = %v on the executor, %v dense", step, what, i, got[i], want[i])
			}
		}
	}
	vec := func(v []float64, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	condition := func(step int, positive bool) {
		t.Helper()
		subject := r.Intn(local.N())
		next, err := dist.Condition(subject, positive)
		if err != nil || next == nil {
			t.Fatalf("step %d: cluster condition: %v, %v", step, next, err)
		}
		t.Cleanup(next.Close)
		dist = next
		if local.ConditionInPlace(subject, positive) == nil {
			t.Fatalf("step %d: dense condition rejected", step)
		}
	}
	update := func(step int) {
		t.Helper()
		nn := local.N()
		pm := bitvec.Mask(r.Uint64()) & bitvec.Full(nn)
		if pm == 0 {
			pm = bitvec.FromIndices(r.Intn(nn))
		}
		y := dilution.Negative
		if r.Bool() {
			y = dilution.Positive
		}
		if errL, errD := local.Update(pm, y), dist.Update(pm, y); errL != nil || errD != nil {
			t.Fatalf("step %d: update: dense %v, cluster %v", step, errL, errD)
		}
	}
	// unsettled compares the two readers that take the pending scale as a
	// factor of their sums and leave it pending.
	unsettled := func(step int) {
		t.Helper()
		nn := local.N()
		same(step, "unsettled marginals", vec(dist.Marginals()), local.Marginals())
		order := r.Perm(nn)[:1+r.Intn(nn)]
		same(step, "unsettled prefix masses", vec(dist.PrefixNegMasses(order)), local.PrefixNegMasses(order))
	}
	// heldThenSwept reads Marginals twice straight after one update and
	// again after a condition — each time from the vector that round left
	// behind, no round — and once after Fetch, which sweeps: every path
	// must be the dense model's.
	heldThenSwept := func(step int) {
		t.Helper()
		held := func(what string) {
			t.Helper()
			for read := 0; read < 2; read++ {
				if dist.marg == nil {
					t.Fatalf("step %d: the cluster model holds no marginals after %s", step, what)
				}
				same(step, "held marginals after "+what, vec(dist.Marginals()), local.Marginals())
			}
		}
		update(step)
		held("an update")
		condition(step, false)
		held("a condition")
		same(step, "posterior", vec(dist.Fetch()), local.Posterior().Slice())
		if dist.marg != nil {
			t.Fatalf("step %d: the held marginals survived Fetch", step)
		}
		same(step, "swept marginals", vec(dist.Marginals()), local.Marginals())
	}
	for step := 0; step < 30; step++ {
		if step == 10 || step == 20 {
			condition(step, step == 20)
		}
		if step == 5 {
			heldThenSwept(step)
		}
		if step%3 == 1 && local.N() > 8 {
			update(step)
			unsettled(step)
			update(step)
			unsettled(step)
			condition(step, step%2 == 0)
			unsettled(step)
		}
		update(step)
		unsettled(step)
		nn := local.N()
		same(step, "posterior", vec(dist.Fetch()), local.Posterior().Slice())
		same(step, "marginals", vec(dist.Marginals()), local.Marginals())
		ent, err := dist.Entropy()
		same(step, "entropy", vec([]float64{ent}, err), []float64{local.Entropy()})
		order := r.Perm(nn)[:1+r.Intn(nn)]
		same(step, "prefix masses", vec(dist.PrefixNegMasses(order)), local.PrefixNegMasses(order))
		cands := make([]bitvec.Mask, 7)
		for c := range cands {
			cands[c] = bitvec.Mask(r.Uint64()) & bitvec.Full(nn)
		}
		same(step, "candidate masses", vec(dist.NegMasses(cands)), local.NegMasses(cands))
	}
}

// TestPriorClosedFormMatchesSweepOnCluster is the lattice test of the same
// name on a loopback cluster: a freshly dialed model answers Marginals and
// Entropy from its risks with no RPC, both equal to what the kernels read
// off the fetched shards, and after one Update or one Condition the shards
// are swept.
func TestPriorClosedFormMatchesSweepOnCluster(t *testing.T) {
	r := rng.New(919)
	resp := dilution.Binary{Sens: 0.93, Spec: 0.98}
	check := func(what string, m *Model, wantPrior bool) {
		t.Helper()
		if m.prior != wantPrior {
			t.Fatalf("%s: prior flag %v, want %v", what, m.prior, wantPrior)
		}
		marg, err := m.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		ent, err := m.Entropy()
		if err != nil {
			t.Fatal(err)
		}
		post, err := m.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		wantMarg := make([]float64, m.N())
		lattice.AddMarginals(0, post, wantMarg)
		nats := lattice.EntropyNats(post)
		wantEnt := nats.Value() / math.Ln2
		for i := range wantMarg {
			if math.Abs(marg[i]-wantMarg[i]) > 1e-12 {
				t.Fatalf("%s: marginal %d = %v, swept %v", what, i, marg[i], wantMarg[i])
			}
		}
		if math.Abs(ent-wantEnt) > 1e-12*math.Max(1, wantEnt) {
			t.Fatalf("%s: entropy %v, swept %v", what, ent, wantEnt)
		}
	}
	for _, n := range []int{1, 2, 5, 9, 14} {
		risks := make([]float64, n)
		for i := range risks {
			risks[i] = 0.01 + 0.9*r.Float64()
		}
		addrs := startExecutors(t, min(2, 1<<uint(n)))
		fresh := dialTest(t, addrs, risks, resp)
		check("prior", fresh, true)
		if err := fresh.Update(bitvec.Full(n), dilution.Positive); err != nil {
			t.Fatal(err)
		}
		check("updated", fresh, false)
		if marg, _ := fresh.Marginals(); !(marg[0] > risks[0]) {
			t.Fatalf("n=%d: a positive pool left marginal 0 at %v (risk %v)", n, marg[0], risks[0])
		}
		if n > 1 {
			fresh.Close() // an executor serves one driver at a time
			cond, err := dialTest(t, addrs, risks, resp).Condition(r.Intn(n), r.Bool())
			if err != nil || cond == nil {
				t.Fatalf("n=%d: condition: %v, %v", n, cond, err)
			}
			t.Cleanup(cond.Close)
			check("conditioned", cond, false)
		}
	}
}

// TestPriorPrefixClosedFormOnCluster: a freshly dialed model answers
// PrefixNegMasses from its risks with no round — the same closed form the
// dense model uses — within 1e-13 of the histogram the kernel reads off the
// fetched shards, and refuses a malformed ordering itself, as the executors
// would. A degenerate prior (every risk the largest float below 1: from 21
// subjects up the all-negative mass underflows to 0) is refused by DialWith
// before anything is dialed, so no executor needs to exist.
func TestPriorPrefixClosedFormOnCluster(t *testing.T) {
	r := rng.New(929)
	resp := dilution.Binary{Sens: 0.93, Spec: 0.98}
	for _, n := range []int{1, 2, 5, 9, 14} {
		risks := make([]float64, n)
		for i := range risks {
			risks[i] = 0.01 + 0.9*r.Float64()
		}
		addrs, stop, err := StartLocalObs(min(2, 1<<uint(n)), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		m, err := DialWith(addrs, risks, resp, DialOptions{Timeout: 2 * time.Second, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		order := r.Perm(n)[:1+r.Intn(n)]
		neg, err := m.PrefixNegMasses(order)
		if err != nil {
			t.Fatal(err)
		}
		if rounds := rpcCount(m, OpPrefix); rounds != 0 {
			t.Fatalf("n=%d: the prior's prefix scan cost %d prefix RPCs", n, rounds)
		}
		if _, err := m.PrefixNegMasses(append(order, order[0])); err == nil {
			t.Fatalf("n=%d: a duplicate subject was accepted at the prior", n)
		}
		post, err := m.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := lattice.NewRankTable(order, n)
		if err != nil {
			t.Fatal(err)
		}
		hist := make([]float64, len(order)+1)
		tbl.AddMinRankMasses(0, post, hist)
		var acc prob.Accumulator
		for i := len(order) - 1; i >= 0; i-- {
			acc.Add(hist[i+1])
			if math.Abs(neg[i]-acc.Value()) > 1e-13 {
				t.Fatalf("n=%d order %v: prior prefix mass %d = %v, swept %v", n, order, i, neg[i], acc.Value())
			}
		}
	}
	_, err := DialWith([]string{"127.0.0.1:1"}, uniform(21, 1-0x1p-53), resp, DialOptions{})
	if err == nil || !strings.Contains(err.Error(), "degenerate prior") {
		t.Fatalf("a prior of total 0 was not refused before dialing: %v", err)
	}
}
