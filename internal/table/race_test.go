//go:build race

package table

const raceEnabled = true
