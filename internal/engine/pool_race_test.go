package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCloseRacesSubmit hammers the submit/Close window: many goroutines run
// parallel-for operations while another closes the pool mid-flight. Before
// submit and Close shared a lock, a Close landing between submit's
// closed-check and its channel send panicked with a send on a closed
// channel. Every For must still cover its full range via the inline
// fallback, and nothing may panic. Run under -race in CI.
func TestCloseRacesSubmit(t *testing.T) {
	const (
		rounds     = 50
		submitters = 8
		iterations = 1 << 10
	)
	for round := 0; round < rounds; round++ {
		p := NewPool(4)
		var start, done sync.WaitGroup
		start.Add(submitters)
		done.Add(submitters)
		var total atomic.Int64
		for s := 0; s < submitters; s++ {
			go func() {
				defer done.Done()
				start.Done()
				start.Wait()
				p.For(iterations, 7, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}()
		}
		start.Wait()
		p.Close()
		done.Wait()
		if got, want := total.Load(), int64(submitters*iterations); got != want {
			t.Fatalf("round %d: covered %d indices, want %d", round, got, want)
		}
	}
}

// TestCloseConcurrentWithClose checks idempotence under contention: many
// goroutines racing Close on one pool must all return, exactly one closing
// the channel.
func TestCloseConcurrentWithClose(t *testing.T) {
	p := NewPool(2)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
	// The pool stays usable inline after close.
	n := 0
	p.For(100, 0, func(lo, hi int) { n += hi - lo })
	if n != 100 {
		t.Fatalf("post-close inline For covered %d, want 100", n)
	}
}

// TestSerialAndFanOutShareAPool: two goroutines drive Vector kernels on one
// pool, one below serialBelow (on its caller) and one above (on the
// workers), as served cohorts beside a large campaign do. Both keep exact
// results. Run under -race in CI.
func TestSerialAndFanOutShareAPool(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var wg sync.WaitGroup
	for _, n := range []uint64{serialBelow / 4, serialBelow * 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := NewVector(p, n, 0)
			for round := 0; round < 20; round++ {
				setEach(v, func(uint64) float64 { return 1 })
				v.Scale(2)
				if got := v.Sum(); got != float64(2*n) {
					t.Errorf("n=%d round %d: Sum = %v, want %d", n, round, got, 2*n)
					return
				}
				if got := v.ReduceVec(1, func(_ int, _ uint64, data, out []float64) {
					out[0] = float64(len(data))
				}); got[0] != float64(n) {
					t.Errorf("n=%d round %d: ReduceVec counted %v states", n, round, got[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}
