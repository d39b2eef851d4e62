//go:build race

package clean

const raceEnabled = true
