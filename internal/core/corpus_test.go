package core_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"stopwatch/internal/core"
	"stopwatch/internal/scenario"
)

// TestCorpusHoldsEqualEveryBeaconEvent is the hold's oracle: every ci: true
// scenario file, at each of its pinned seeds on 1, 2 and 4 shards, runs once
// with held beacons and once with every beacon an arrival event
// (core.SetEveryBeacon), and the two runs must give the same op-log digest,
// the same failures and a byte-equal end-of-run metrics snapshot. The
// digest alone misses a hold that moves only a count or a latency the op
// log does not record. It flips a package variable, so it runs alone.
func TestCorpusHoldsEqualEveryBeaconEvent(t *testing.T) {
	const dir = "../../scenarios"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetEveryBeacon(false)
	pinned := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".yaml" {
			continue
		}
		sc, err := scenario.Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !sc.CI {
			continue
		}
		for _, seed := range sc.Seeds {
			pinned++
			for _, shards := range corpusShards {
				var res [2]*scenario.Result
				for i, every := range []bool{true, false} {
					core.SetEveryBeacon(every)
					if res[i], err = scenario.Run(sc, scenario.Options{Seed: seed, Shards: shards}); err != nil {
						t.Fatalf("%s seed=%d shards=%d: %v", sc.Name, seed, shards, err)
					}
				}
				ref, got := res[0], res[1]
				switch {
				case got.Digest != ref.Digest:
					t.Errorf("%s seed=%d shards=%d: op-log digest %s held, %s every beacon an event", sc.Name, seed, shards, got.Digest, ref.Digest)
				case !slices.Equal(got.Failures, ref.Failures):
					t.Errorf("%s seed=%d shards=%d: failures %q held, %q every beacon an event", sc.Name, seed, shards, got.Failures, ref.Failures)
				case got.Metrics != ref.Metrics:
					t.Errorf("%s seed=%d shards=%d: metrics snapshots part at byte %d", sc.Name, seed, shards, firstByteDiff(got.Metrics, ref.Metrics))
				}
			}
		}
	}
	if pinned < 15 {
		t.Fatalf("only %d pinned seeds: the corpus lost its ci: true files or their seeds", pinned)
	}
}

// corpusShards are the shard counts TestCorpusHoldsEqualEveryBeaconEvent
// runs each seed at; a race build runs K = 2 only (race_corpus_test.go).
var corpusShards = []int{1, 2, 4}

// firstByteDiff returns the first index at which a and b differ.
func firstByteDiff(a, b string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
