//go:build race

package explore

const raceEnabled = true
