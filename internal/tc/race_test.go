//go:build race

package tc

// raceDetector reports a -race build, whose sync.Pool drops items at
// random on purpose, so pooled scratch is reallocated now and then.
const raceDetector = true
