// Package pool runs independent work items on every core: the
// discovery rebuild a reopened lake does profiles each table on its
// own, so it spreads the tables over one worker per core.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size is the number of workers a pool over n items takes:
// min(GOMAXPROCS, n), and at least one.
func Size(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// Run calls fn(w, i) once for every item i in [0, n) and returns once
// every call has. The calls run on min(workers, n) goroutines,
// numbered w from 0, that claim the items in order, so a caller may
// keep one scratch value per worker, workers of them, and index it by
// w. With one worker Run is the plain loop on the calling goroutine.
func Run(workers, n int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
