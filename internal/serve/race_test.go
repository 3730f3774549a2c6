//go:build race

package serve

// raceEnabled reports a -race build. Its sync.Pool drops a random share
// of what is put back, so pooled scratch is reallocated at random.
const raceEnabled = true
