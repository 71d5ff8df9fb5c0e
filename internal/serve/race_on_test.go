//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of recycled items by design; allocation pins that rely on pooling skip.
const raceEnabled = true
