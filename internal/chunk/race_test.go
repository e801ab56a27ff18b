//go:build race

package chunk_test

// Race-instrumented deflate is ~20x slower; the exhaustive byte-identity
// sweeps run in the plain test build.
func init() { raceEnabled = true }
