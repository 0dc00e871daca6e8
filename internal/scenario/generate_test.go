package scenario

import (
	"fmt"
	"strings"
	"testing"

	"stopwatch"
)

// smallChurn is a fleet small enough that every guard binds: seven
// machines leave one to spare above the in-service floor, and capacity 3
// keeps most machines multi-tenant.
const smallChurn = `name: small-churn
description: generator unit-test fleet
duration_ms: 3000
fleet:
  machines: 7
  capacity: 3
  guests:
    - name: t
      count: 0
      app:
        kind: beacon
        period_ms: 10
        compute: 400000
        disk_kb: 0
        until_ms: 2500
generators:
  - kind: arrivals
    guest: t
    rate_per_s: 6
    mean_lifetime_ms: 1500
    to_ms: 2500
`

const smallChurnFaults = `  - kind: replica-failures
    count: 3
    from_ms: 300
    to_ms: 2000
  - kind: drains
    count: 2
    from_ms: 300
    to_ms: 2000
    mean_down_ms: 300
  - kind: crashes
    count: 2
    from_ms: 300
    to_ms: 2000
    detected: false
    mean_down_ms: 300
`

// admits renders the submitted admissions of a finished run: who, and
// when.
func admits(r *runner) string {
	var b strings.Builder
	for _, oc := range r.cp.Log() {
		if op, ok := oc.Op.(stopwatch.AdmitOp); ok {
			fmt.Fprintf(&b, "%s@%d\n", op.GuestID, oc.Submitted)
		}
	}
	return b.String()
}

// TestGeneratorStreamsAreIndependent: every generator draws from its own
// named stream, so adding a drains generator — which changes where guests
// land and which moves happen — leaves the arrivals' admissions (guest and
// instant) byte-identical.
func TestGeneratorStreamsAreIndependent(t *testing.T) {
	run := func(src string) string {
		r, err := start(mustParse(t, src), Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.run(); err != nil {
			t.Fatal(err)
		}
		return admits(r)
	}
	alone := run(smallChurn)
	withDrains := run(smallChurn + "  - kind: drains\n    count: 2\n    from_ms: 300\n    to_ms: 2000\n    mean_down_ms: 300\n")
	if alone == "" {
		t.Fatal("the arrivals generator admitted nothing")
	}
	if alone != withDrains {
		t.Fatalf("a drains generator shifted the arrivals:\n--- alone ---\n%s--- with drains ---\n%s", alone, withDrains)
	}
}

// TestGeneratorGuardsHold: over 50 seeds of failures, drains and crashes
// on a fleet where every guard binds, no drain or crash ever starts with
// five or fewer machines in service, and no replica failure ever lands on a
// guest that is mid-operation or already degraded (killReplica reports
// that as a run failure).
func TestGeneratorGuardsHold(t *testing.T) {
	sc := mustParse(t, smallChurn+smallChurnFaults)
	fired := 0
	for seed := uint64(1); seed <= 50; seed++ {
		r, err := start(sc, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r.cp.Watch(func(ev stopwatch.OpEvent) {
			if ev.Kind != stopwatch.OpStarted {
				return
			}
			switch ev.Op.(type) {
			case stopwatch.DrainOp, stopwatch.FailOp:
				fired++
				// The op has started but not yet taken its machine out.
				if n := len(r.inService()); n <= minUndrained {
					t.Errorf("seed %d: %v started with %d machines in service", seed, ev.Op, n)
				}
			}
		})
		res, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Failures {
			if strings.Contains(f, "kill-replica") {
				t.Errorf("seed %d: %s", seed, f)
			}
		}
	}
	if fired < 100 {
		t.Fatalf("only %d drains and crashes fired over 50 seeds: the guards were not exercised", fired)
	}
}
