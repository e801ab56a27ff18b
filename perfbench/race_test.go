//go:build race

package main

// The race detector's sync.Pool drops items at random, so allocation
// counts do not repeat under it.
func init() { raceEnabled = true }
