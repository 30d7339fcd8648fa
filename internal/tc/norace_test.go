//go:build !race

package tc

// raceDetector reports a -race build (race_test.go).
const raceDetector = false
