package query

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExceeded is the sentinel inside every memory-budget
// overrun. The lake classifies it as lakeerr resource_exhausted, so
// over-budget queries fail fast with a typed error instead of OOMing
// the process.
var ErrBudgetExceeded = errors.New("query: memory budget exceeded")

// MemBudget is one query's memory accounting token: a shared row
// counter threaded into every stage that buffers rows (the fan-in
// queues and the sort heap), charged on buffer growth and released as
// rows leave the buffers. When the combined footprint would cross the
// limit, Acquire fails and the pipeline surfaces the overrun in-band —
// the enforcement is cooperative and approximate (a puller may hold
// one batch in hand beyond its charge), which is fine: the budget
// bounds the O(input) blowup of an unbounded ORDER BY or a stalled
// consumer, not individual rows.
//
// A nil *MemBudget is a valid, unlimited budget; every method is
// nil-safe, so un-budgeted queries pay a single pointer test.
type MemBudget struct {
	limit int64
	used  atomic.Int64
}

// NewMemBudget builds a budget of `rows` buffered rows; rows <= 0
// returns nil (unlimited).
func NewMemBudget(rows int) *MemBudget {
	if rows <= 0 {
		return nil
	}
	return &MemBudget{limit: int64(rows)}
}

// Acquire charges n rows against the budget. On overrun the charge is
// rolled back and the returned error wraps ErrBudgetExceeded.
func (b *MemBudget) Acquire(n int) error {
	if b == nil || n <= 0 {
		return nil
	}
	used := b.used.Add(int64(n))
	if used > b.limit {
		b.used.Add(-int64(n))
		return fmt.Errorf("%w: %d buffered rows over the %d-row budget", ErrBudgetExceeded, used, b.limit)
	}
	return nil
}

// Release returns n rows to the budget.
func (b *MemBudget) Release(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(-int64(n))
}
