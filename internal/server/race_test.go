//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts, so allocation counts through pooled buffers are not stable.
const raceEnabled = true
