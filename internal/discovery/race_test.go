//go:build race

package discovery

const raceEnabled = true
