//go:build race

package predict

// The race detector makes sync.Pool drop a share of its Puts at random,
// so allocation counts taken under it are not exact.
func init() { raceEnabled = true }
