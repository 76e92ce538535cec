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
	"time"

	"repro/internal/obs"
)

// Pool is a fixed-size worker pool. The zero value is not usable; create
// pools with NewPool and release them with Close. A Pool is safe for
// concurrent use, but parallel operations must not be nested on the same
// Pool from inside a worker body (the submit path falls back to inline
// execution to stay deadlock-free, at the cost of parallelism).
type Pool struct {
	workers int
	tasks   chan *forTask
	lifecyc sync.WaitGroup

	// mu makes submit's closed-check-then-send atomic with respect to
	// Close's close(tasks): submitters hold it shared for the send, Close
	// holds it exclusively while marking closed. A plain atomic flag is not
	// enough — a Close between the load and the send would panic the
	// submitter with a send on a closed channel. It also guards spares,
	// held exclusively for the once-a-posterior take and release.
	mu     sync.RWMutex
	closed bool

	// spares are the backing arrays of the last Vectors released on the
	// pool (Vector.Release), each at its full capacity, oldest first, kept
	// for the next vectors that fit them (TakeSpare). The pool holds at
	// most Workers() of them; a slot past the end is always nil, so the
	// slice's own array keeps no taken or dropped backing alive.
	spares [][]float64

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
		tasks:   make(chan *forTask, workers),
		spares:  make([][]float64, 0, workers),
	}
	p.lifecyc.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.lifecyc.Done()
			for t := range p.tasks {
				t.run()
			}
		}()
	}
	return p
}

// Workers reports the pool's parallel width.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the workers down and waits for them to exit, and lets the
// spares go. Close is idempotent. Operations submitted after Close run
// inline on the caller; a vector released after it keeps no spare.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.dropLocked()
	if !already {
		close(p.tasks)
	}
	p.mu.Unlock()
	if !already {
		p.lifecyc.Wait()
	}
}

// TakeSpare hands over a released backing array that can hold n elements
// and is no larger than limit, as a slice of length n, and returns nil when
// the pool keeps none: the smallest that fits, the last released among
// equals. A take that misses leaves the spares alone. A lattice open
// passes its own size as the limit, so it takes an exact fit; a restore
// passes its cohort's first size, so a restored posterior never holds more
// storage than one that was never evicted. The contents are whatever the
// released vector left: the caller must write every element before it
// reads one. A nil pool holds no spare.
func (p *Pool) TakeSpare(n, limit uint64) []float64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i := len(p.spares) - 1; i >= 0; i-- {
		c := uint64(cap(p.spares[i]))
		if c >= n && c <= limit && (best < 0 || c < uint64(cap(p.spares[best]))) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	spare, last := p.spares[best], len(p.spares)-1
	copy(p.spares[best:], p.spares[best+1:])
	p.spares[last] = nil
	p.spares = p.spares[:last]
	return spare[:n]
}

// DropSpare lets every spare go: what an open that takes no storage from
// the pool (a sparse or cluster posterior) calls. A nil pool holds none.
func (p *Pool) DropSpare() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.dropLocked()
	p.mu.Unlock()
}

// dropLocked lets every spare go; the caller holds mu.
func (p *Pool) dropLocked() {
	clear(p.spares)
	p.spares = p.spares[:0]
}

// keep makes backing a spare; when the pool already keeps Workers() of
// them, the oldest goes. A closed pool keeps none.
func (p *Pool) keep(backing []float64) {
	p.mu.Lock()
	if !p.closed {
		if len(p.spares) == p.workers {
			copy(p.spares, p.spares[1:])
			p.spares = p.spares[:len(p.spares)-1] // append overwrites the vacated last slot
		}
		p.spares = append(p.spares, backing)
	}
	p.mu.Unlock()
}

// submit hands t to a worker, or runs it inline when the pool is closed or
// every worker is saturated (which also makes accidental nesting safe
// instead of deadlocking).
func (p *Pool) submit(t *forTask) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		t.runInline()
		return
	}
	select {
	case p.tasks <- t:
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		t.runInline()
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

	t := &forTask{n: n, grain: grain, fn: fn, m: p.metrics.Load()}
	if t.m != nil {
		t.sent = time.Now()
	}
	t.wg.Add(spawn)
	for w := 0; w < spawn; w++ {
		p.submit(t)
	}
	t.wg.Wait()
	t.box.rethrow()
}

// forTask is one For call: its range, grain and body, the claim counter,
// barrier and panic box its workers share, and what instrumentation needs,
// in one allocation. Every worker the call spawns runs the same task.
type forTask struct {
	n, grain int
	fn       func(lo, hi int)
	next     atomic.Int64
	wg       sync.WaitGroup
	box      panicBox
	m        *poolMetrics // nil when the pool is uninstrumented
	sent     time.Time    // when the call began submitting, for the submit-wait histogram
}

// run is one worker's share of the call: queue wait observed when it
// starts, chunks claimed until the range is spent, the task counted before
// the barrier is released.
func (t *forTask) run() {
	if t.m != nil {
		t.m.submitWait.Observe(time.Since(t.sent).Seconds())
	}
	t.claim()
	if t.m != nil {
		t.m.tasks.Inc()
	}
	t.wg.Done()
}

// runInline is run on the submitter, counted as an inline task.
func (t *forTask) runInline() {
	if t.m != nil {
		t.m.inline.Inc()
	}
	t.run()
}

// claim takes chunks of the range until none is left; a panic in fn is
// kept for For to re-raise.
func (t *forTask) claim() {
	defer t.box.capture()
	for {
		hi := int(t.next.Add(int64(t.grain)))
		lo := hi - t.grain
		if lo >= t.n {
			return
		}
		if hi > t.n {
			hi = t.n
		}
		t.fn(lo, hi)
	}
}

// inline runs fn(0, n) on the calling goroutine, skipping the scheduling
// machinery entirely but still counting the work as one inline task when
// instrumented. It is For's single-chunk path and the serial side of
// Vector's serial-versus-fan-out policy, so it builds no closure: the
// wait is observed and the task counted in line, and a panic in fn is
// recovered by callInline and re-raised as For re-raises a worker's.
func (p *Pool) inline(n int, fn func(lo, hi int)) {
	m := p.metrics.Load()
	if m != nil {
		m.inline.Inc()
		m.submitWait.Observe(0) // no queue: the caller is the worker
	}
	r := callInline(n, fn)
	if m != nil {
		m.tasks.Inc()
	}
	if r != nil {
		panic(fmt.Sprintf("engine: worker panic: %v", r))
	}
}

// callInline calls fn(0, n) and returns what it panicked with, if it did.
func callInline(n int, fn func(lo, hi int)) (r any) {
	defer func() { r = recover() }()
	fn(0, n)
	return nil
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
