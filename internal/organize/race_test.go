//go:build race

package organize

const raceEnabled = true
