package core

import (
	"fmt"
	"slices"
	"testing"

	"stopwatch/internal/sim"
)

// TestStallSweepSuspectsTheSilentMachine: the sweep runs every deadline/5 on
// the control loop and reads every live replica's pending proposals. A
// sequence that resolved names nobody; one that cannot resolve (its third
// member's machine failed) names that machine at the first sweep two
// deadlines after the earlier survivor's proposal — once per sweep, however
// many survivors wait on it — and not a sweep sooner. On one shard and on
// two (the guest's replicas then span both).
func TestStallSweepSuspectsTheSilentMachine(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const deadline, period = 40 * sim.Millisecond, 8 * sim.Millisecond
			c, g, send := probeCluster(t, shards)
			var suspects []int
			if err := c.SetStallDetector(deadline, func(m int) { suspects = append(suspects, m) }); err != nil {
				t.Fatal(err)
			}
			step := func(until sim.Time) {
				t.Helper()
				if err := c.Run(until); err != nil {
					t.Fatal(err)
				}
			}
			// proposed steps until both survivors have sent their n-th
			// proposal and returns the earlier send time.
			w0, w1 := g.replicas[0], g.replicas[1]
			proposed := func(n uint64) sim.Time {
				t.Helper()
				for now := c.Loop().Now(); w0.sent < n || w1.sent < n; now += 10 * sim.Microsecond {
					step(now)
				}
				return min(w0.out.Get(n).at, w1.out.Get(n).at)
			}

			c.Loop().At(20*sim.Millisecond, "send", send)
			step(20 * sim.Millisecond)
			at := proposed(1)
			step(at + 3*deadline)
			if w0.nd.Pending() != 0 || len(suspects) != 0 {
				t.Fatalf("a resolved sequence: pending %d, suspects %v", w0.nd.Pending(), suspects)
			}

			if err := c.FailMachine(2); err != nil {
				t.Fatal(err)
			}
			c.Loop().At(200*sim.Millisecond, "send", send)
			step(200 * sim.Millisecond)
			at = proposed(2)
			first := (at + 2*deadline + period - 1) / period * period
			step(first - 1)
			if len(suspects) != 0 {
				t.Fatalf("suspects %v before two deadlines passed", suspects)
			}
			step(first)
			if !slices.Equal(suspects, []int{2}) {
				t.Fatalf("suspects %v at the first sweep past two deadlines, want [2]", suspects)
			}
			step(first + period)
			if !slices.Equal(suspects, []int{2, 2}) {
				t.Fatalf("suspects %v a sweep later, want [2 2]", suspects)
			}
		})
	}
}

// TestStallSweepAllocatesNothing: a sweep over a stalled guest — both
// survivors overdue on the failed machine, which is reported — allocates
// nothing.
func TestStallSweepAllocatesNothing(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	reports := 0
	if err := c.SetStallDetector(40*sim.Millisecond, func(int) { reports++ }); err != nil {
		t.Fatal(err)
	}
	if err := c.FailMachine(2); err != nil {
		t.Fatal(err)
	}
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if g.replicas[0].nd.Pending() == 0 || reports == 0 {
		t.Fatalf("no stall to sweep: pending %d, reports %d", g.replicas[0].nd.Pending(), reports)
	}
	reports = 0
	if allocs := testing.AllocsPerRun(100, c.sweep); allocs != 0 {
		t.Fatalf("a sweep allocates %v objects", allocs)
	}
	if reports != 101 {
		t.Fatalf("%d reports over 101 sweeps", reports)
	}
}
