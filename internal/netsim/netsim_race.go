//go:build race

package netsim

// Race builds poison recycled packets and check them in AllocTo: see
// raceChecks.
func init() { raceChecks = true }
