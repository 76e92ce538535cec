//go:build go1.24

package engine

import (
	"runtime"
	"testing"
	"weak"
)

// TestPoolRetainsNoDroppedBacking: a backing the pool has handed over or
// let go is unreachable from it once its taker drops it — after a take,
// after an overflow past Workers() spares, after DropSpare and after
// Close — while the spares it keeps stay reachable. A vacated slot of the
// spares slice that still pointed at a backing would keep the backing's
// whole array alive.
func TestPoolRetainsNoDroppedBacking(t *testing.T) {
	p := NewPool(2)
	release := func(n int) weak.Pointer[float64] {
		b := make([]float64, n)
		VectorOver(p, b, 1).Release()
		return weak.Make(&b[0])
	}
	gone := func(what string, w weak.Pointer[float64], want bool) {
		t.Helper()
		runtime.GC()
		runtime.GC()
		if got := w.Value() == nil; got != want {
			t.Fatalf("%s: unreachable %v, want %v", what, got, want)
		}
	}

	kept := release(1 << 10)
	taken := release(1 << 10)
	if p.TakeSpare(1<<10, 1<<10) == nil {
		t.Fatal("no spare to take")
	}
	gone("a taken spare", taken, true)
	gone("the spare beside it", kept, false)

	second := release(1 << 10)
	third := release(1 << 10) // past Workers(): kept is the oldest and goes
	gone("a spare dropped past Workers()", kept, true)
	gone("the second spare", second, false)
	gone("the third spare", third, false)

	p.DropSpare()
	gone("a spare DropSpare let go", second, true)
	gone("the other spare DropSpare let go", third, true)

	last := release(1 << 10)
	p.Close()
	gone("a spare Close let go", last, true)
	runtime.KeepAlive(p)
}
