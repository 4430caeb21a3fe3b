//go:build race

package dlrmperf

// The race detector slows calibration several-fold.
func init() { raceEnabled = true }
