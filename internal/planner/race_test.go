//go:build race

package planner_test

// raceDetector reports whether the race detector is on; it adds
// allocations of its own, so allocation ledgers are not checked under it.
const raceDetector = true
