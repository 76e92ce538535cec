package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// stage answers id's outstanding proposal from truth (Ideal response),
// proposing one first when none is outstanding, and returns how many
// results it sent: 0 once the cohort is done or a call failed. after runs
// after each Manager call.
func stage(t *testing.T, m *Manager, id string, truth bitvec.Mask, after func()) int {
	pools, err := m.Pools(id)
	after()
	if err != nil {
		t.Errorf("pools %s: %v", id, err)
		return 0
	}
	if pools.Done {
		return 0
	}
	results := make([]core.TestResult, len(pools.Pools))
	for i, p := range pools.Pools {
		results[i] = core.TestResult{Stage: p.Stage, Index: p.Index, Outcome: idealOutcome(truth, bitvec.FromIndices(p.Subjects...))}
	}
	err = m.Submit(id, results)
	after()
	if err != nil {
		t.Errorf("submit %s: %v", id, err)
		return 0
	}
	return len(results)
}

// TestManagerResidentHardBound: four goroutines drive three cohorts each
// to completion through a manager with MaxResident 2, so creates and
// restores race each other for the two slots; Resident(), sampled after
// every call, never reads more than 2. A restore or build counts its slot,
// and evicts to make it, before the posterior is in memory.
func TestManagerResidentHardBound(t *testing.T) {
	const bound, workers, perWorker = 2, 4, 3
	m := newTestManager(t, ManagerConfig{MaxResident: bound})
	risks := workload.UniformRisks(8, 0.1)
	var peak atomic.Int64
	sample := func() {
		r := int64(m.Resident())
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			truth := workload.Draw(risks, rng.New(uint64(60+w))).Truth
			var ids []string
			for range perWorker {
				id, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
				sample()
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				ids = append(ids, id)
			}
			for len(ids) > 0 {
				for i := 0; i < len(ids); i++ {
					if stage(t, m, ids[i], truth, sample) == 0 {
						ids = append(ids[:i], ids[i+1:]...)
						i--
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > bound {
		t.Fatalf("Resident() read %d after a call, MaxResident is %d", got, bound)
	}
}

// TestManagerChurnAllocationBudget: with MaxResident 1, two cohorts of 16
// subjects take turns, each turn one stage of one cohort, so every turn
// restores its cohort and evicts the other (a finished cohort is replaced
// by a new one). The eviction frees the lattice the restore then reads its
// tail into, so the turns allocate, per restore, under a quarter of one
// lattice's bytes: no restore allocates a tail.
func TestManagerChurnAllocationBudget(t *testing.T) {
	const n, turns = 16, 50
	reg := obs.NewRegistry()
	m := newTestManager(t, ManagerConfig{MaxResident: 1, Obs: reg})
	risks := workload.UniformRisks(n, 0.05)
	seed := uint64(70)
	type cohort struct {
		id    string
		truth bitvec.Mask
	}
	open := func() cohort {
		seed++
		id, err := m.Create(CreateCohortRequest{Tenant: "t", Risks: risks})
		if err != nil {
			t.Fatal(err)
		}
		return cohort{id, workload.Draw(risks, rng.New(seed)).Truth}
	}
	cohorts := [2]cohort{open(), open()}
	turn := func(i int) {
		c := &cohorts[i%2]
		if stage(t, m, c.id, c.truth, func() {}) == 0 {
			*c = open()
		}
	}
	for i := range 4 { // warm up: chunk pools, tracer rings, registry series
		turn(i)
	}
	restored := reg.Counter("sbgt_serve_restores_total")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r0 := restored.Value()
	for i := range turns {
		turn(i)
	}
	runtime.ReadMemStats(&after)
	restores := restored.Value() - r0
	if restores < turns*3/4 {
		t.Fatalf("%d turns restored %d times", turns, restores)
	}
	per, budget := (after.TotalAlloc-before.TotalAlloc)/restores, uint64(8<<n)/4
	t.Logf("%d restores, %d bytes allocated per restore (budget %d)", restores, per, budget)
	if per > budget {
		t.Fatalf("%d bytes allocated per restore, over a quarter of one lattice (%d)", per, budget)
	}
}
