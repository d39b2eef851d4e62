//go:build race

package remote

const raceEnabled = true
