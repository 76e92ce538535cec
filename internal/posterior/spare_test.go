package posterior_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/workload"
)

// spareResp is the assay the spare-storage tests run under: the
// benchmark's hyperbolic dilution.
var spareResp = dilution.Hyperbolic{MaxSens: 0.98, Spec: 0.995, D: 0.25}

func openDenseN(t testing.TB, pool *engine.Pool, n int) posterior.Model {
	t.Helper()
	m, err := posterior.Spec{}.Open(pool, workload.UniformRisks(n, 0.08), spareResp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClosedDenseRefusesReads: once a dense model is closed its storage is
// the pool's spare, so every fallible method answers an error naming the
// closed model — also after the next open has taken that storage and
// filled it with its own mass — and a conditioned receiver answers one
// naming the conditioning, while its Close leaves the survivor's storage
// alone.
func TestClosedDenseRefusesReads(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		m := posterior.Instrument(openDenseN(t, pool, 10), reg)
		if err := m.Update(bitvec.FromIndices(0, 1, 2), dilution.Positive); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		next := openDenseN(t, pool, 10) // takes the closed model's storage
		refusesReads(t, m, "dense model is closed")
		if err := m.Close(); err != nil {
			t.Fatalf("a second Close: %v", err)
		}
		if posterior.Lattice(m) != nil {
			t.Fatal("a closed model still hands out its lattice")
		}

		survivor, err := next.Condition(3, false)
		if err != nil || survivor == nil {
			t.Fatalf("condition: %v", err)
		}
		refusesReads(t, next, "dense model was conditioned")
		if err := next.Close(); err != nil {
			t.Fatal(err)
		}
		if pool.TakeSpare(1<<10) != nil {
			t.Fatal("closing a conditioned receiver released the survivor's storage")
		}
		if _, err := survivor.Marginals(); err != nil {
			t.Fatalf("the survivor after its old receiver's Close: %v", err)
		}
		survivor.Close()
	}
}

// refusesReads fails unless every fallible method of m answers an error
// containing want.
func refusesReads(t *testing.T, m posterior.Model, want string) {
	t.Helper()
	pools := []bitvec.Mask{bitvec.FromIndices(0)}
	reads := map[string]func() error{
		"Update": func() error { return m.Update(pools[0], dilution.Negative) },
		"Marginals": func() error {
			_, err := m.Marginals()
			return err
		},
		"NegMasses": func() error {
			_, err := m.NegMasses(pools)
			return err
		},
		"PrefixNegMasses": func() error {
			_, err := m.PrefixNegMasses([]int{0, 1})
			return err
		},
		"Entropy": func() error {
			_, err := m.Entropy()
			return err
		},
		"Summary": func() error {
			_, err := m.Summary()
			return err
		},
		"Condition": func() error {
			_, err := m.Condition(0, false)
			return err
		},
		"Snapshot": func() error {
			_, err := m.Snapshot()
			return err
		},
		"BranchMarginals": func() error {
			_, err := posterior.Branches(m).BranchMarginals(pools)
			return err
		},
		"BranchPrefixNegMasses": func() error {
			_, err := posterior.Branches(m).BranchPrefixNegMasses(pools, []int{0, 1})
			return err
		},
	}
	for name, read := range reads {
		if err := read(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on a spent model: %v, want an error naming %q", name, err, want)
		}
	}
}

// TestSpareDroppedByOtherOpen: a closed dense model's storage waits on the
// pool for the next dense open of its size, and a sparse open, a cluster
// open, a dense open of another size or a sparse restore each let it go.
func TestSpareDroppedByOtherOpen(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	risks := workload.UniformRisks(10, 0.08)
	openSpec := func(spec posterior.Spec, n int) posterior.Model {
		m, err := spec.Open(pool, risks[:n], spareResp)
		if err != nil {
			t.Fatalf("open %s: %v", spec.Kind, err)
		}
		return m
	}
	openDenseN(t, pool, 10).Close()
	if pool.TakeSpare(1<<10) == nil {
		t.Fatal("a closed dense model left no spare")
	}
	sparseSnap := func() *posterior.Snapshot {
		m := openSpec(posterior.Spec{Kind: posterior.KindSparse, Eps: 1e-9}, 10)
		defer m.Close()
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}()
	for name, other := range map[string]func() posterior.Model{
		"sparse open": func() posterior.Model { return openSpec(posterior.Spec{Kind: posterior.KindSparse, Eps: 1e-9}, 10) },
		"cluster open": func() posterior.Model {
			return openSpec(posterior.Spec{Kind: posterior.KindCluster, LocalExecutors: 1, ExecWorkers: 1, DialTimeout: 5 * time.Second}, 10)
		},
		"dense open of another size": func() posterior.Model { return openSpec(posterior.Spec{}, 9) },
		"sparse restore": func() posterior.Model {
			m, err := posterior.FromSnapshot(pool, sparseSnap)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	} {
		openDenseN(t, pool, 10).Close()
		m := other()
		if pool.TakeSpare(1<<10) != nil {
			t.Errorf("a %s kept the closed model's storage", name)
		}
		m.Close()
	}
}

// spareCampaign opens a dense N-subject model on pool, runs a fixed script
// of updates and one collapse, and returns the marginals after each step,
// closing the model at the end: on a shared pool, the next campaign of
// the same size runs in this one's storage. It reports failures with
// t.Error, so it may run on any goroutine.
func spareCampaign(t testing.TB, pool *engine.Pool, n int) [][]float64 {
	m, err := posterior.Spec{}.Open(pool, workload.UniformRisks(n, 0.08), spareResp)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer func() { m.Close() }()
	var out [][]float64
	read := func() {
		marg, err := m.Marginals()
		if err != nil {
			t.Error(err)
		}
		out = append(out, marg)
	}
	read()
	for i, y := range []dilution.Outcome{dilution.Positive, dilution.Negative, dilution.Positive} {
		if err := m.Update(bitvec.Full(n>>uint(i)), y); err != nil {
			t.Error(err)
			return out
		}
		read()
	}
	next, err := m.Condition(n-1, false)
	if err != nil || next == nil {
		t.Errorf("condition: %v", err)
		return out
	}
	m = next
	read()
	return out
}

// TestSpareSharedByConcurrentSessions: two goroutines open, update,
// collapse and close dense models on one pool, in two sizes (one fans its
// kernels out, one runs them on the caller), so each open may take the
// other goroutine's storage, its own, or none. Every marginal equals the
// same campaign's on a fresh pool, bit for bit. make race runs it under
// the race detector.
func TestSpareSharedByConcurrentSessions(t *testing.T) {
	sizes := []int{10, 16}
	want := map[int][][]float64{}
	for _, n := range sizes {
		fresh := engine.NewPool(2)
		want[n] = spareCampaign(t, fresh, n)
		fresh.Close()
	}
	rounds := 12
	if testing.Short() {
		rounds = 6
	}
	pool := engine.NewPool(2)
	defer pool.Close()
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				n := sizes[(i/2+g)%len(sizes)]
				if got := spareCampaign(t, pool, n); !reflect.DeepEqual(got, want[n]) {
					t.Errorf("goroutine %d round %d (N=%d): marginals differ from a fresh pool's", g, i, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkOpenDense prices a dense open and its first update — the
// opening turn's lattice work — at N = 16, 20 and 22: "fresh" drops the
// pool's spare before every open, so the lattice is a new zeroed array as
// it was before recycling; "recycled" opens in the storage the previous
// iteration closed. Run with -benchmem: the recycled arm allocates no
// lattice.
func BenchmarkOpenDense(b *testing.B) {
	pool := engine.NewPool(2)
	defer pool.Close()
	for _, n := range []int{16, 20, 22} {
		risks := workload.UniformRisks(n, 0.05)
		first := bitvec.Full(n / 2)
		for _, arm := range []string{"fresh", "recycled"} {
			b.Run(fmt.Sprintf("N=%d/%s", n, arm), func(b *testing.B) {
				b.SetBytes(8 << uint(n))
				for i := 0; i < b.N; i++ {
					if arm == "fresh" {
						pool.DropSpare()
					}
					m, err := posterior.Spec{}.Open(pool, risks, spareResp)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Update(first, dilution.Negative); err != nil {
						b.Fatal(err)
					}
					m.Close()
				}
			})
		}
	}
}
