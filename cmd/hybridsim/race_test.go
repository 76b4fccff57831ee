//go:build race

package main

// raceEnabled trims TestGolden: the simulator is about ten times slower
// under the race detector.
const raceEnabled = true
