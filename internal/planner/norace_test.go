//go:build !race

package planner_test

const raceDetector = false
