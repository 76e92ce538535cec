// Package engine is the data-parallel execution substrate that stands in
// for Spark in this reproduction.
//
// SBGT's contribution is a mapping of Bayesian group testing onto a
// partitioned data-parallel engine: the 2^N-entry lattice posterior becomes
// a partitioned vector; likelihood updates are maps; normalization,
// marginals, and the halving scan are reductions. This package provides
// exactly that substrate in-process:
//
//   - Pool: a persistent worker pool with dynamically scheduled chunked
//     parallel-for (atomic work claiming gives the load balancing Spark
//     gets from task scheduling),
//   - Vector: a partitioned []float64 with map/reduce kernels whose
//     reductions merge per-partition compensated partial sums in partition
//     order — results are bit-stable for a fixed partition layout no matter
//     how work interleaves,
//   - multi-output reductions (ReduceVec) for marginal vectors and
//     candidate-pool scans.
//
// The TCP-distributed analogue (driver/executors) lives in internal/cluster
// and reuses these partition kernels on each executor.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool is a fixed-size worker pool. The zero value is not usable; create
// pools with NewPool and release them with Close. A Pool is safe for
// concurrent use, but parallel operations must not be nested on the same
// Pool from inside a worker body (the submit path falls back to inline
// execution to stay deadlock-free, at the cost of parallelism).
type Pool struct {
	workers int
	tasks   chan func()
	lifecyc sync.WaitGroup

	// mu makes submit's closed-check-then-send atomic with respect to
	// Close's close(tasks): submitters hold it shared for the send, Close
	// holds it exclusively while marking closed. A plain atomic flag is not
	// enough — a Close between the load and the send would panic the
	// submitter with a send on a closed channel.
	mu     sync.RWMutex
	closed bool

	// metrics is nil until Instrument attaches a registry; the hot path
	// pays one atomic load and a branch when uninstrumented.
	metrics atomic.Pointer[poolMetrics]
}

// poolMetrics is the pool's reporting surface, registered by Instrument.
type poolMetrics struct {
	tasks      *obs.Counter   // every task executed (worker-run or inline)
	inline     *obs.Counter   // the subset run inline (closed pool, saturated workers, a single chunk, or a Vector below serialBelow)
	submitWait *obs.Histogram // submit-to-start queue latency
}

// wrap instruments one task: queue wait observed when the task starts,
// the task counted when it returns. Every body handed to wrap recovers
// its own panics (panicBox), so the count needs no defer.
func (m *poolMetrics) wrap(fn func()) func() {
	wait := m.submitWait.Time()
	return func() {
		wait()
		fn()
		m.tasks.Inc()
	}
}

// Instrument attaches the pool to a registry under the
// sbgt_engine_pool_* family: tasks/inline counters and the submit-wait
// histogram — the three series the benchmark's engine layer reads. A nil
// registry detaches nothing and costs nothing; calling Instrument again
// re-points the pool at the new registry.
func (p *Pool) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &poolMetrics{
		tasks:      reg.Counter("sbgt_engine_pool_tasks_total"),
		inline:     reg.Counter("sbgt_engine_pool_inline_total"),
		submitWait: reg.Histogram("sbgt_engine_pool_submit_wait_seconds", nil),
	}
	p.metrics.Store(m)
}

// NewPool returns a pool with the given number of workers; workers <= 0
// selects runtime.GOMAXPROCS(0). Workers are started eagerly so the first
// kernel does not pay spawn latency.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan func(), workers),
	}
	p.lifecyc.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.lifecyc.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// Workers reports the pool's parallel width.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the workers down and waits for them to exit. Close is
// idempotent. Operations submitted after Close run inline on the caller.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	if !already {
		close(p.tasks)
	}
	p.mu.Unlock()
	if !already {
		p.lifecyc.Wait()
	}
}

// submit hands fn to a worker, or runs it inline when the pool is closed or
// every worker is saturated (which also makes accidental nesting safe
// instead of deadlocking).
func (p *Pool) submit(fn func()) {
	m := p.metrics.Load()
	if m != nil {
		fn = m.wrap(fn)
	}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		if m != nil {
			m.inline.Inc()
		}
		fn()
		return
	}
	select {
	case p.tasks <- fn:
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		if m != nil {
			m.inline.Inc()
		}
		fn()
	}
}

// panicBox captures the first panic raised by any worker so the parallel
// operation can re-raise it on the caller's goroutine instead of crashing
// the process from a worker or hanging the barrier.
type panicBox struct {
	once sync.Once
	val  any
}

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		b.once.Do(func() { b.val = r })
	}
}

func (b *panicBox) rethrow() {
	if b.val != nil {
		panic(fmt.Sprintf("engine: worker panic: %v", b.val))
	}
}

// For runs fn over [0, n) split into contiguous chunks claimed dynamically
// by the pool's workers. grain is the chunk length; grain <= 0 picks a
// default of 8 chunks per worker, which balances scheduling overhead
// against load skew. For blocks until every index is processed. A panic in
// fn is re-raised on the caller's goroutine after all workers quiesce.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (p.workers * 8)
		if grain < 1 {
			grain = 1
		}
	}
	chunks := (n + grain - 1) / grain
	spawn := p.workers
	if chunks < spawn {
		spawn = chunks
	}
	if spawn == 1 {
		p.inline(n, fn)
		return
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var box panicBox
	body := func() {
		defer wg.Done()
		defer box.capture()
		for {
			hi := int(next.Add(int64(grain)))
			lo := hi - grain
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	wg.Add(spawn)
	for w := 0; w < spawn; w++ {
		p.submit(body)
	}
	wg.Wait()
	box.rethrow()
}

// inline runs fn(0, n) on the calling goroutine, skipping the scheduling
// machinery entirely but still counting the work as one inline task when
// instrumented. It is For's single-chunk path and the serial side of
// Vector's serial-versus-fan-out policy.
func (p *Pool) inline(n int, fn func(lo, hi int)) {
	var box panicBox
	run := func() {
		defer box.capture()
		fn(0, n)
	}
	if m := p.metrics.Load(); m != nil {
		m.inline.Inc()
		run = m.wrap(run)
	}
	run()
	box.rethrow()
}

// Run executes n independent jobs fn(0..n-1) on the pool, one claim per
// job. It is the fan-out primitive for Monte-Carlo replicates, where each
// job is heavyweight and dynamic claiming absorbs run-time skew.
func (p *Pool) Run(n int, fn func(job int)) {
	p.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
