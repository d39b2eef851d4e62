package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Run calls fn once for every item, each on a worker numbered below the
// width asked for and below the item count; one worker takes the items
// in order, as the loop it is.
func TestRunCallsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4} {
		for _, n := range []int{0, 1, 3, 1000} {
			calls := make([]atomic.Int32, n)
			var order []int
			Run(workers, n, func(w, i int) {
				if w < 0 || w >= max(1, min(workers, n)) {
					t.Errorf("workers %d, n %d: item %d on worker %d", workers, n, i, w)
				}
				calls[i].Add(1)
				if workers <= 1 {
					order = append(order, i)
				}
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("workers %d, n %d: item %d called %d times", workers, n, i, c)
				}
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("workers %d, n %d: call %d took item %d, want the loop's order", workers, n, i, got)
				}
			}
		}
	}
}

// Size is min(GOMAXPROCS, n), and never below one.
func TestSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for n, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 3, 50: 3} {
		if got := Size(n); got != want {
			t.Errorf("Size(%d) at GOMAXPROCS 3 = %d, want %d", n, got, want)
		}
	}
}
