//go:build race

package core_test

// Ten times slower under -race: the corpus oracle runs on two shards only,
// where beacons cross the barrier.
func init() { corpusShards = []int{2} }
