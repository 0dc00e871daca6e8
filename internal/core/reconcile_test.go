package core

import (
	"fmt"
	"slices"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// splitAtCrash deploys probe guest "g" on every host of an n-host cluster, lets one packet through clean, then cuts host 0's proposal stream
// toward host 1 and crashes host 0 the instant its proposal for a second
// packet has left. Five milliseconds on — the settle instant — every
// survivor but host 1 holds host 0's vote and has resolved the second
// packet; host 1 never will on its own.
func splitAtCrash(t *testing.T, n int, disable bool) (*Cluster, *Guest) {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.Hosts = n
	c := mustCluster(t, cfg)
	if disable {
		c.DisableViewReconcile()
	}
	hosts := make([]int, n)
	for i := range hosts {
		hosts[i] = i
	}
	g, err := c.Deploy("g", hosts, func() guest.App { return apps.NewProbeApp() })
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	send := func() {
		c.Net().Send(&netsim.Packet{Src: "client", Dst: ServiceAddr("g"), Size: 64, Kind: "probe"})
	}
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(80 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	w0 := g.replicas[0]
	if err := c.Net().InjectLoss(w0.hn.addr, g.replicas[1].hn.addr, 1); err != nil {
		t.Fatal(err)
	}
	c.Loop().At(100*sim.Millisecond, "send", send)
	for now := 100 * sim.Millisecond; w0.sent < 2; now += 50 * sim.Microsecond {
		if now > 200*sim.Millisecond {
			t.Fatal("host 0 never proposed the second packet")
		}
		if err := c.Run(now); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FailMachine(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(c.Loop().Now() + 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, w := range g.replicas[1:] {
		want := 0
		if w.hostIdx == 1 {
			want = 1
		}
		if w.nd.Pending() != want {
			t.Fatalf("survivor on host %d has %d pending at the settle instant, want %d", w.hostIdx, w.nd.Pending(), want)
		}
	}
	return c, g
}

// TestReconcileSurvivors: the exchange at the settle instant repairs the one
// survivor that missed the dead member's vote, which adopts the decision the
// others journaled — for a 3-replica group and a 5-replica one (four
// survivors) — so that after the view commits every survivor has delivered
// the split packet at the same virtual time. The exchange is idempotent, and
// the ablation switch turns it into a no-op.
func TestReconcileSurvivors(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			c, g := splitAtCrash(t, n, false)
			if st := c.ReconcileSurvivors(0, []string{"g"}); st != (ReconcileStats{Rounds: 1, Repairs: 1}) {
				t.Fatalf("exchange: %+v, want one round, one repair", st)
			}
			if st := c.ReconcileSurvivors(0, []string{"g"}); st != (ReconcileStats{Rounds: 1}) {
				t.Fatalf("second exchange: %+v, want one round, no repair", st)
			}
			if err := c.MarkReplicaDead("g", 0); err != nil {
				t.Fatal(err)
			}
			if err := c.Run(c.Loop().Now() + 100*sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			want := g.replicas[2].app.(*apps.ProbeApp).DeliveryTimes()
			if len(want) != 2 {
				t.Fatalf("host 2 delivered %v, want two packets", want)
			}
			for _, w := range g.replicas[1:] {
				got := w.app.(*apps.ProbeApp).DeliveryTimes()
				if !slices.Equal(got, want) || w.nd.Pending() != 0 {
					t.Fatalf("host %d delivered %v with %d pending, want %v", w.hostIdx, got, w.nd.Pending(), want)
				}
			}
		})
	}
	t.Run("disabled", func(t *testing.T) {
		c, g := splitAtCrash(t, 3, true)
		if st := c.ReconcileSurvivors(0, []string{"g"}); st != (ReconcileStats{}) {
			t.Fatalf("disabled exchange: %+v, want zero", st)
		}
		if w := g.replicas[1]; w.nd.Pending() != 1 {
			t.Fatalf("disabled exchange repaired host 1: %d pending", w.nd.Pending())
		}
		// The wedge the exchange exists for: after the view commits, host 2
		// stale-drops host 1's re-proposal and host 1 never delivers.
		if err := c.MarkReplicaDead("g", 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(c.Loop().Now() + 100*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if n1, n2 := len(g.replicas[1].app.(*apps.ProbeApp).DeliveryTimes()), len(g.replicas[2].app.(*apps.ProbeApp).DeliveryTimes()); n1 != 1 || n2 != 2 {
			t.Fatalf("without the exchange host 1 delivered %d packets and host 2 %d, want 1 and 2", n1, n2)
		}
	})
}
