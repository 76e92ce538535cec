package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestPoolInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(4)
	defer p.Close()
	p.Instrument(reg)

	const n = 1000
	var sum atomic.Int64
	p.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if got := sum.Load(); got != n*(n-1)/2 {
		t.Fatalf("For under instrumentation computed %d", got)
	}

	snap := reg.Snapshot()
	var tasks, inline uint64
	for _, c := range snap.Counters {
		switch c.Name {
		case "sbgt_engine_pool_tasks_total":
			tasks = c.Value
		case "sbgt_engine_pool_inline_total":
			inline = c.Value
		}
	}
	var waits uint64
	for _, h := range snap.Histograms {
		if h.Name == "sbgt_engine_pool_submit_wait_seconds" {
			waits = h.Count
		}
	}
	if tasks == 0 {
		t.Error("no tasks counted")
	}
	if inline > tasks {
		t.Errorf("inline %d exceeds total tasks %d", inline, tasks)
	}
	if waits != tasks {
		t.Errorf("submit_wait_seconds count %d != tasks_total %d", waits, tasks)
	}

	// Post-close submissions run inline and keep counting.
	before := tasks + inline
	p.Close()
	p.Run(3, func(int) {})
	snap = reg.Snapshot()
	var after uint64
	for _, c := range snap.Counters {
		if c.Name == "sbgt_engine_pool_tasks_total" || c.Name == "sbgt_engine_pool_inline_total" {
			after += c.Value
		}
	}
	if after <= before {
		t.Errorf("post-close tasks not counted: before %d after %d", before, after)
	}
}

func TestPoolInstrumentNilRegistry(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Instrument(nil)
	done := false
	p.Run(1, func(int) { done = true })
	if !done {
		t.Fatal("task did not run")
	}
}

// TestInlineInstrumentedAllocs: instrumentation costs an inline call no
// allocation — it counts the task, observes the wait and recovers a panic
// without a heap closure — and still counts, observes and re-raises.
func TestInlineInstrumentedAllocs(t *testing.T) {
	var sum int
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	}
	allocs := func(p *Pool) float64 {
		return testing.AllocsPerRun(200, func() { p.inline(64, body) })
	}
	bare := NewPool(2)
	defer bare.Close()
	reg := obs.NewRegistry()
	inst := NewPool(2)
	defer inst.Close()
	inst.Instrument(reg)
	if b, i := allocs(bare), allocs(inst); i > b {
		t.Errorf("an instrumented inline call makes %v allocations, an uninstrumented one %v", i, b)
	}

	tasks := reg.Counter("sbgt_engine_pool_tasks_total")
	inline := reg.Counter("sbgt_engine_pool_inline_total")
	wait := reg.Histogram("sbgt_engine_pool_submit_wait_seconds", nil)
	t0, i0, w0 := tasks.Value(), inline.Value(), wait.Count()
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "engine: worker panic: boom") {
				t.Errorf("inline panic re-raised as %v", r)
			}
		}()
		inst.For(1, 1, func(int, int) { panic("boom") })
	}()
	if tasks.Value() != t0+1 || inline.Value() != i0+1 || wait.Count() != w0+1 {
		t.Errorf("a panicking inline call moved tasks %d→%d, inline %d→%d, waits %d→%d; want one each",
			t0, tasks.Value(), i0, inline.Value(), w0, wait.Count())
	}
}
