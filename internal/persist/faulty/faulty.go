// Package faulty is the persistence half of the chaos harness: a
// persist.Backend decorator that injects storage failures on demand —
// fail every Nth append, fail the next N appends, tear one write in
// half (a crash mid-append), fail or tear segment puts, slow every call
// down, or fail checkpoints — so tests can drive the lake's durability
// layer through the failure modes the recovery machinery claims to
// survive and assert the claims hold: shed or failed queries never
// corrupt state, transient WAL failures are retried with backoff, a
// failed segment put applies nothing, a torn tail is dropped on replay
// instead of failing the open, and a healed backend re-admits traffic.
//
// The wrapper is safe for concurrent use and deterministic: fault
// programming happens through explicit calls (no randomness), so a
// chaos test can say exactly which append fails and assert exactly
// what survives.
package faulty

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"golake/internal/persist"
)

// ErrInjected is the failure every programmed fault returns (wrapped
// with the fault kind), so tests can errors.Is for "this was the
// harness, not a real bug".
var ErrInjected = errors.New("faulty: injected fault")

// Backend decorates an inner persist.Backend with programmable faults.
// The zero state injects nothing: every call passes straight through.
type Backend struct {
	inner persist.Backend

	mu sync.Mutex
	// failEveryNth fails appends number n, 2n, 3n, ... (1-based count
	// over the wrapper's lifetime); 0 disables.
	failEveryNth int
	// failNext fails the next failNext appends unconditionally.
	failNext int
	// tornNext makes the next append write only the first half of the
	// frame to the inner backend and then report failure — the on-disk
	// image of a crash mid-append.
	tornNext bool
	// failCheckpoints fails every Checkpoint call.
	failCheckpoints bool
	// failNextSegPuts fails the next failNextSegPuts segment puts
	// without reaching the inner backend.
	failNextSegPuts int
	// tornSegPut makes the next segment put store only the first half
	// of the segment and then report failure.
	tornSegPut bool
	// slow is added as a sleep before every inner call; 0 disables.
	slow time.Duration

	appends  int
	injected int
}

// New wraps inner with a fault harness that initially injects nothing.
func New(inner persist.Backend) *Backend {
	return &Backend{inner: inner}
}

// FailEveryNthAppend programs appends n, 2n, 3n, ... (counted from the
// wrapper's creation) to fail without reaching the inner backend.
// n <= 0 disables.
func (b *Backend) FailEveryNthAppend(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failEveryNth = n
}

// FailNextAppends programs the next n appends to fail unconditionally.
func (b *Backend) FailNextAppends(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failNext = n
}

// TornWriteNextAppend programs the next append to write half the frame
// and then fail — simulating a crash mid-append. Recovery must drop
// the torn tail, not fail the open.
func (b *Backend) TornWriteNextAppend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tornNext = true
}

// FailNextSegmentPuts programs the next n segment puts to fail without
// reaching the inner backend.
func (b *Backend) FailNextSegmentPuts(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failNextSegPuts = n
}

// TornSegmentPut programs the next segment put to store half the
// segment and then fail — the image of a crash mid-put.
func (b *Backend) TornSegmentPut() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tornSegPut = true
}

// FailCheckpoints toggles failure of every Checkpoint call.
func (b *Backend) FailCheckpoints(fail bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failCheckpoints = fail
}

// SlowIO adds d of latency before every inner call; 0 restores full
// speed.
func (b *Backend) SlowIO(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.slow = d
}

// Heal clears every programmed fault: the backend behaves like its
// inner backend again. Injected-fault and append counters keep their
// values.
func (b *Backend) Heal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failEveryNth = 0
	b.failNext = 0
	b.tornNext = false
	b.failCheckpoints = false
	b.failNextSegPuts = 0
	b.tornSegPut = false
	b.slow = 0
}

// Injected reports how many faults the harness has fired.
func (b *Backend) Injected() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.injected
}

// Appends reports how many AppendWAL calls the wrapper has seen
// (including ones it failed).
func (b *Backend) Appends() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appends
}

// dally sleeps the programmed SlowIO latency (outside b.mu).
func (b *Backend) dally() {
	b.mu.Lock()
	d := b.slow
	b.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (b *Backend) Name() string { return "faulty(" + b.inner.Name() + ")" }

func (b *Backend) ReadSnapshot() ([]byte, error) {
	b.dally()
	return b.inner.ReadSnapshot()
}

func (b *Backend) ReadWAL() ([]byte, error) {
	b.dally()
	return b.inner.ReadWAL()
}

// AppendWAL consults the programmed faults in priority order — torn
// write, fail-next, fail-every-Nth — and otherwise delegates.
func (b *Backend) AppendWAL(frame []byte) error {
	b.dally()
	b.mu.Lock()
	b.appends++
	switch {
	case b.tornNext:
		b.tornNext = false
		b.injected++
		b.mu.Unlock()
		// Write the torn prefix through, then report the crash.
		_ = b.inner.AppendWAL(frame[:len(frame)/2])
		return errInjectedf("torn write after %d bytes", len(frame)/2)
	case b.failNext > 0:
		b.failNext--
		b.injected++
		b.mu.Unlock()
		return errInjectedf("append failed (fail-next)")
	case b.failEveryNth > 0 && b.appends%b.failEveryNth == 0:
		b.injected++
		b.mu.Unlock()
		return errInjectedf("append %d failed (every %d)", b.appends, b.failEveryNth)
	}
	b.mu.Unlock()
	return b.inner.AppendWAL(frame)
}

func (b *Backend) Checkpoint(snapshot []byte) error {
	b.dally()
	b.mu.Lock()
	if b.failCheckpoints {
		b.injected++
		b.mu.Unlock()
		return errInjectedf("checkpoint failed")
	}
	b.mu.Unlock()
	return b.inner.Checkpoint(snapshot)
}

func (b *Backend) WALSize() (int64, error) {
	b.dally()
	return b.inner.WALSize()
}

func (b *Backend) SnapshotSize() (int64, error) {
	b.dally()
	return b.inner.SnapshotSize()
}

// PutSegment consults the programmed segment faults — torn put first,
// then fail-next — and otherwise delegates.
func (b *Backend) PutSegment(name string, data []byte) error {
	b.dally()
	b.mu.Lock()
	switch {
	case b.tornSegPut:
		b.tornSegPut = false
		b.injected++
		b.mu.Unlock()
		_ = b.inner.PutSegment(name, data[:len(data)/2])
		return errInjectedf("torn segment put after %d bytes", len(data)/2)
	case b.failNextSegPuts > 0:
		b.failNextSegPuts--
		b.injected++
		b.mu.Unlock()
		return errInjectedf("segment put failed (fail-next)")
	}
	b.mu.Unlock()
	return b.inner.PutSegment(name, data)
}

func (b *Backend) ReadSegment(name string) ([]byte, error) {
	b.dally()
	return b.inner.ReadSegment(name)
}

func (b *Backend) DeleteSegment(name string) error {
	b.dally()
	return b.inner.DeleteSegment(name)
}

func (b *Backend) ListSegments() ([]persist.SegmentInfo, error) {
	b.dally()
	return b.inner.ListSegments()
}

func (b *Backend) Close() error { return b.inner.Close() }

// errInjectedf wraps ErrInjected with the fault kind.
func errInjectedf(format string, args ...any) error {
	return &injectedError{msg: "faulty: " + fmt.Sprintf(format, args...)}
}

// injectedError carries the fault description and unwraps to
// ErrInjected.
type injectedError struct{ msg string }

func (e *injectedError) Error() string { return e.msg }
func (e *injectedError) Unwrap() error { return ErrInjected }
