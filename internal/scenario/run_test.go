package scenario

import (
	"strings"
	"testing"
)

// tiny is a fast end-to-end scenario exercising admission, an eviction,
// a drain cycle and a fabric fault.
const tiny = `name: tiny
description: smoke
duration_ms: 900
fleet:
  machines: 7
  capacity: 3
  guests:
    - name: g
      count: 3
      app:
        kind: beacon
        period_ms: 5
        compute: 500000
        sink: sink
      traffic:
        kind: pings
        period_ms: 25
        from: probe
        stop_ms: 800
events:
  - at_ms: 150
    action: inject-loss
    from: probe
    to: guest:g-0
    prob: 0.5
  - at_ms: 250
    action: heal
    from: probe
    to: guest:g-0
  - at_ms: 300
    action: evict
    guest: g-1
  - at_ms: 400
    action: drain
    machine: 0
  - at_ms: 700
    action: undrain
    machine: 0
assertions:
  - check: stats
    field: admitted
    min: 3
  - check: stats
    field: evicted
    min: 1
  - check: stats
    field: host_drains
    min: 1
  - check: lockstep
    guest: all
`

// TestRunShardInvariantDigest: the same scenario produces a byte-identical
// op-log digest for every shard count — fault injection included.
func TestRunShardInvariantDigest(t *testing.T) {
	sc := mustParse(t, tiny)
	var digest string
	for _, shards := range []int{1, 2, 4} {
		res, err := Run(sc, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !res.Passed() {
			t.Fatalf("shards=%d failures: %v", shards, res.Failures)
		}
		if digest == "" {
			digest = res.Digest
		} else if res.Digest != digest {
			t.Fatalf("shards=%d digest %s, want %s", shards, res.Digest, digest)
		}
	}
}

// TestRunReportsAssertionFailures: an unmeetable assertion lands in
// Result.Failures without erroring the run — at a declared seed. An
// assertion is a pin of the declared seeds: elsewhere it is not checked.
func TestRunReportsAssertionFailures(t *testing.T) {
	sc := mustParse(t, strings.Replace(tiny, "field: evicted\n    min: 1", "field: evicted\n    min: 99", 1))
	res, err := Run(sc, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("a pin checked at an undeclared seed: %v", res.Failures)
	}
	res, err = Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("unmeetable assertion passed")
	}
	found := false
	for _, f := range res.Failures {
		if strings.Contains(f, "stats assertion evicted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failures = %v, want a stats assertion defect", res.Failures)
	}
}

// TestRunChecksDigestPin: a wrong pin for the run's seed is a failure.
func TestRunChecksDigestPin(t *testing.T) {
	sc := mustParse(t, "digests:\n  1: 00000000deadbeef\n"+tiny)
	res, err := Run(sc, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, f := range res.Failures {
		if strings.Contains(f, "does not match the pin") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("failures = %v, want a digest-pin mismatch", res.Failures)
	}
}

// TestRunRejectsInvalidScenario: Run refuses a scenario that fails static
// validation.
func TestRunRejectsInvalidScenario(t *testing.T) {
	sc := mustParse(t, strings.Replace(tiny, "guest: g-1", "guest: ghost", 1))
	if _, err := Run(sc, Options{}); err == nil {
		t.Fatal("invalid scenario ran")
	}
}
