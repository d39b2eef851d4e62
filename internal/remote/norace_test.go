//go:build !race

package remote

// raceEnabled gates the allocation-count tests: the race detector's
// instrumentation allocates on its own account.
const raceEnabled = false
