package core

import (
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
)

// echoApp answers every inbound packet with its payload.
type echoApp struct{}

func (echoApp) Boot(guest.Ctx)                       {}
func (echoApp) OnTimer(guest.Ctx, string)            {}
func (echoApp) OnDiskDone(guest.Ctx, guest.DiskDone) {}
func (echoApp) OnPacket(ctx guest.Ctx, p guest.Payload) {
	ctx.Compute(50_000)
	ctx.Send(p.Src, 128, p.Data)
}

// TestReplicaFirstTouchBudget: one echo guest on three hosts and its first
// 16 packets. A second guest on the same hosts has already served 16, so
// what the fabric, the gateways and the hosts allocate once is spent, and
// what is left is the replicas' own first touch, plus the guest's journal
// and egress group. Each per-replica buffer starts at the size its group
// fixes, or at a small constant, and links come from per-shard chunks, so
// the 16 packets cost 64 allocations (21.3 per replica), against 109 (36.3)
// before. Wiring stays free: Deploy costs 52 allocations (53 in race
// builds), one more than before for the guest's own egress node, whose
// endpoint it interns, so nothing else moved into set-up.
func TestReplicaFirstTouchBudget(t *testing.T) {
	const doublingPerReplica, deployBudget = 109.0 / 3, 53
	const packets = 16
	app := func() guest.App { return echoApp{} }
	// Two of everything: AllocsPerRun's warm-up run, then the measured one.
	clusters := []*Cluster{mustCluster(t, DefaultClusterConfig()), mustCluster(t, DefaultClusterConfig())}
	for _, c := range clusters {
		if _, err := c.Deploy("warm", []int{0, 1, 2}, app); err != nil {
			t.Fatal(err)
		}
	}
	var guests []*Guest
	i := 0
	deploy := testing.AllocsPerRun(1, func() {
		g, err := clusters[i].Deploy("echo", []int{0, 1, 2}, app)
		if err != nil {
			t.Fatal(err)
		}
		guests = append(guests, g)
		i++
	})
	pings := func(c *Cluster, svc string, from sim.Time) sim.Time {
		client, dst := c.Net().Endpoint("client"), c.Net().Endpoint(ServiceAddr(svc))
		for k := range packets {
			c.Loop().At(from+sim.Time(5*k)*sim.Millisecond, "ping", func() {
				c.Net().Send(c.Net().AllocTo(client, dst, 64, "ping", uint64(k)))
			})
		}
		return from + sim.Time(5*packets+60)*sim.Millisecond
	}
	var warmed sim.Time
	for _, c := range clusters {
		warmed = pings(c, "warm", 20*sim.Millisecond)
		pings(c, "echo", warmed)
		c.Start()
		if err := c.Run(warmed); err != nil {
			t.Fatal(err)
		}
	}
	i = 0
	run := testing.AllocsPerRun(1, func() {
		c := clusters[i]
		i++
		if err := c.Run(warmed + sim.Time(5*packets+60)*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}) / 3
	for _, g := range guests {
		if err := g.CheckLockstep(); err != nil {
			t.Fatal(err)
		}
		for _, r := range g.Replicas() {
			if n := r.Runtime().VM().OutputCount(); n != packets {
				t.Fatalf("replica %d echoed %d of %d packets", r.Slot(), n, packets)
			}
		}
	}
	if deploy > deployBudget {
		t.Errorf("Deploy costs %v allocations, want at most %d", deploy, deployBudget)
	}
	if limit := 0.6 * doublingPerReplica; run > limit {
		t.Errorf("the first %d packets cost %v allocations per replica, want at most %v", packets, run, limit)
	}
}
