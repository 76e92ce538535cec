// Package goroutineleak is a fixture for the goroutineleak analyzer.
package goroutineleak

import (
	"context"
	"sync"
)

// leakSend parks the goroutine on an unbuffered send with no cancellation
// path: if the returned channel is never drained, the goroutine is pinned
// forever.
func leakSend() chan int {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	return ch
}

// pump blocks on every iteration; leakNamed spawns it by name rather
// than as a literal.
func pump(ch chan int) {
	for {
		ch <- 0
	}
}

func leakNamed(ch chan int) {
	go pump(ch)
}

// leakSelect parks on a select with neither a default case nor a
// cancellation arm.
func leakSelect(a, b chan int) {
	go func() {
		select {
		case <-a:
		case <-b:
		}
	}()
}

// leakWait parks directly on a WaitGroup nobody is guaranteed to drain.
func leakWait(wg *sync.WaitGroup) {
	go func() {
		wg.Wait()
	}()
}

// okDone is cancellable through the context arm.
func okDone(ctx context.Context, ch chan int) {
	go func() {
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}()
}

// okDefault never parks: the default case always runs.
func okDefault(ch chan int) {
	go func() {
		select {
		case ch <- 1:
		default:
		}
	}()
}

// okRange terminates when the producer closes the channel.
func okRange(ch chan int) {
	go func() {
		for range ch {
		}
	}()
}

// runJobs is structured fork-join: its Wait is bounded by the Done calls
// it arranges itself.
func runJobs() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// okForkJoin spawns a function that reaches a WaitGroup.Wait only through
// a callee; a transitive Wait is not treated as a leak.
func okForkJoin() {
	go func() {
		runJobs()
	}()
}

// server pairs the watcher's receive with a close in Stop — a protocol
// the analyzer cannot see, so the waiver documents it.
type server struct{ done chan struct{} }

func (s *server) watch() {
	//lint:allow goroutineleak paired with close(s.done) in Stop; the receive unblocks on close
	go func() {
		<-s.done
	}()
}

func (s *server) Stop() { close(s.done) }
