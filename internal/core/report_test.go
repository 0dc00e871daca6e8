package core

import (
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
)

// What a run reports (lockstep, divergences, disk overruns, interrupts and
// the gateway counters) is read through the Guest, VM and gateway
// accessors.

func TestReportStopWatchRun(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 33
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	done := false
	dl := apps.NewDownloader(cl)
	c.Loop().At(20*sim.Millisecond, "fetch", func() {
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 64<<10, func(sim.Time) { done = true })
	})
	if err := c.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("download incomplete")
	}
	if ids := c.GuestIDs(); len(ids) != 1 || g.NumReplicas() != 3 {
		t.Fatalf("guests %v, %d replicas; want one guest of 3", ids, g.NumReplicas())
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if n := g.Divergences(); n != 0 {
		t.Fatalf("divergences: %d", n)
	}
	for _, r := range g.Replicas() {
		if n := r.Runtime().Stats().DiskOverruns; n != 0 {
			t.Fatalf("replica %d disk overruns: %d", r.Slot(), n)
		}
	}
	if s := g.Replica(0).Runtime().VM().Stats(); s.NetInterrupts == 0 || s.DiskInterrupts == 0 {
		t.Fatalf("interrupt counts empty: %+v", s)
	}
	if c.Ingress().Replicated() == 0 || c.Egress().Forwarded() == 0 || c.Egress().StuckBelowForward() != 0 {
		t.Fatalf("gateways: replicated %d, forwarded %d, stuck %d",
			c.Ingress().Replicated(), c.Egress().Forwarded(), c.Egress().StuckBelowForward())
	}
}

func TestReportBaselineRun(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 35
	cfg.Hosts = 1
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	dl := apps.NewDownloader(cl)
	c.Loop().At(20*sim.Millisecond, "fetch", func() {
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 16<<10, nil)
	})
	if err := c.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// One unreplicated VM served it straight off the fabric: no replicas,
	// and the gateways carried none of its traffic.
	if ids := c.GuestIDs(); len(ids) != 1 || g.Baseline == nil || g.NumReplicas() != 0 {
		t.Fatalf("baseline guests %v, VM %v, %d replicas", ids, g.Baseline, g.NumReplicas())
	}
	if c.Ingress().Replicated() != 0 || c.Egress().Forwarded() != 0 {
		t.Fatalf("baseline traffic through the gateways: replicated %d, forwarded %d",
			c.Ingress().Replicated(), c.Egress().Forwarded())
	}
	if s := g.Baseline.VM().Stats(); s.NetInterrupts == 0 || s.DiskInterrupts == 0 {
		t.Fatalf("baseline interrupts: %+v", s)
	}
}

func TestReportFlagsDivergence(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 37
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := c.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := g.Divergences(); n != 0 {
		t.Fatalf("divergences before the forced one: %d", n)
	}
	// Force a synchrony violation on one replica.
	g.Replica(0).Runtime().EnqueueNetDelivery(999, g.Replica(0).Runtime().VirtAtLastExit()-1, guestPayload())
	if err := c.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := g.Divergences(); n == 0 {
		t.Fatal("the forced divergence is not counted")
	}
}

// guestPayload builds a minimal payload for fault injection.
func guestPayload() guest.Payload { return guest.Payload{Src: "x", Size: 1} }
