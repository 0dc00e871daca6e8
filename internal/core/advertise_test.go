package core

import (
	"fmt"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// probeCluster deploys one probe guest "g" on hosts 0-2 of a four-host
// cluster and returns a function that sends it one client packet.
func probeCluster(t *testing.T, shards int) (*Cluster, *Guest, func()) {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.Hosts, cfg.Shards = 4, shards
	c := mustCluster(t, cfg)
	g, err := c.Deploy("g", []int{0, 1, 2}, func() guest.App { return apps.NewProbeApp() })
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return c, g, func() {
		c.Net().Send(&netsim.Packet{Src: "client", Dst: ServiceAddr("g"), Size: 64, Kind: "probe"})
	}
}

// TestProposalTailLossFoundByBeacon drops exactly the last proposal one
// replica sends one peer, after which the stream is silent. The proposal
// sender runs no heartbeat: the next pacing beacon carries the stream's
// high-water mark, the peer NAKs within PaceInterval + NAKDelay + one
// round trip of the proposal, the repair resolves the delivery in every
// replica's future and lockstep holds — on one shard and on two.
func TestProposalTailLossFoundByBeacon(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, g, send := probeCluster(t, shards)
			w0 := g.replicas[0]
			step := func(until sim.Time) {
				t.Helper()
				if err := c.Run(until); err != nil {
					t.Fatal(err)
				}
			}
			// Two packets go through clean, so the lost one is a tail.
			c.Loop().At(20*sim.Millisecond, "send", send)
			c.Loop().At(40*sim.Millisecond, "send", send)
			step(80 * sim.Millisecond)
			if got := w0.psnd.Stats(); got.Sent != 2 || got.NAKsReceived != 0 {
				t.Fatalf("warm-up: %+v", got)
			}
			if err := c.Net().InjectLoss(w0.propSrc, g.replicas[1].dom0, 1); err != nil {
				t.Fatal(err)
			}
			c.Loop().At(100*sim.Millisecond, "send", send)
			// Advance in slices finer than any of the bounds below, healing
			// the link the moment the third proposal has left (and been lost).
			const slice = 50 * sim.Microsecond
			var sentAt, nakAt sim.Time
			for now := 100 * sim.Millisecond; nakAt == 0 && now < 200*sim.Millisecond; now += slice {
				step(now)
				st := w0.psnd.Stats()
				if sentAt == 0 && st.Sent == 3 {
					sentAt = now
					if err := c.Net().InjectLoss(w0.propSrc, g.replicas[1].dom0, -1); err != nil {
						t.Fatal(err)
					}
				}
				if st.NAKsReceived > 0 {
					nakAt = now
				}
			}
			if sentAt == 0 || nakAt == 0 {
				t.Fatalf("proposal sent at %v, NAK received at %v", sentAt, nakAt)
			}
			link := c.cfg.CloudLink
			bound := c.cfg.VMM.PaceInterval + sim.Millisecond /* NAKDelay */ + 2*(link.Latency+link.JitterMax) + slice
			if nakAt-sentAt > bound {
				t.Fatalf("tail loss NAKed %v after the send, bound %v", nakAt-sentAt, bound)
			}
			step(400 * sim.Millisecond)
			if st := w0.psnd.Stats(); st.Retransmitted != 1 || st.NAKsReceived != 1 {
				t.Fatalf("repair: %+v", st)
			}
			for _, r := range g.Replicas() {
				if n := len(r.App().(*apps.ProbeApp).DeliveryTimes()); n != 3 {
					t.Fatalf("replica %d saw %d deliveries", r.Slot(), n)
				}
				if r.NetDev().Pending() != 0 {
					t.Fatalf("replica %d still has pending deliveries", r.Slot())
				}
			}
			if err := g.CheckLockstep(); err != nil {
				t.Fatal(err)
			}
			if g.Divergences() != 0 {
				t.Fatalf("divergences: %d", g.Divergences())
			}
			if c.Shards() != shards {
				t.Fatalf("ran on %d shards", c.Shards())
			}
		})
	}
}

// TestLostRepairRetriedAtNAKInterval keeps the link down after the tail
// loss, so the repairs are lost too. The stream stays silent, but its
// owner's beacons keep arriving every PaceInterval and each one counts as
// hearing the source: the NAK retries stay NAKInterval apart instead of
// backing off as they would against a dead sender, and the first repair
// after the link heals resolves the delivery.
func TestLostRepairRetriedAtNAKInterval(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	w0 := g.replicas[0]
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(60 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Net().InjectLoss(w0.propSrc, g.replicas[1].dom0, 1); err != nil {
		t.Fatal(err)
	}
	c.Loop().At(100*sim.Millisecond, "send", send)
	const slice = 50 * sim.Microsecond
	var nakAt []sim.Time
	for now := 100 * sim.Millisecond; len(nakAt) < 5 && now < 200*sim.Millisecond; now += slice {
		if err := c.Run(now); err != nil {
			t.Fatal(err)
		}
		if w0.psnd.Stats().NAKsReceived > uint64(len(nakAt)) {
			nakAt = append(nakAt, now)
		}
	}
	if len(nakAt) < 5 {
		t.Fatalf("NAKs at %v", nakAt)
	}
	const nakInterval = 3 * sim.Millisecond
	slack := c.cfg.CloudLink.JitterMax + slice
	for i := 1; i < len(nakAt); i++ {
		if gap := nakAt[i] - nakAt[i-1]; gap < nakInterval-slack || gap > nakInterval+slack {
			t.Fatalf("NAK %d came %v after the one before, want NAKInterval = %v: %v", i, gap, nakInterval, nakAt)
		}
	}
	if err := c.Net().InjectLoss(w0.propSrc, g.replicas[1].dom0, -1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(c.Loop().Now() + 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := w0.psnd.Stats(); st.NAKsReceived != 6 || st.Retransmitted != 6 {
		t.Fatalf("after the heal: %+v", st)
	}
	for _, r := range g.Replicas() {
		if n := len(r.App().(*apps.ProbeApp).DeliveryTimes()); n != 2 || r.NetDev().Pending() != 0 {
			t.Fatalf("replica %d: %d deliveries, %d pending", r.Slot(), n, r.NetDev().Pending())
		}
	}
}

// TestStaleBeaconCannotReachAdvertise: a beacon advertises a proposal
// stream only through the resident guest's wiring and only from a current
// peer — so one still in flight when its guest departs (receiver state
// already dropped by Forget), or from a machine that left the group, cannot
// resurrect stream state and start NAKing history.
func TestStaleBeaconCannotReachAdvertise(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(80 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	hn1 := c.hostNodes[1]
	beacon := func(from int, mark uint64) {
		hn1.deliver(&netsim.Packet{Src: c.hostNodes[from].addr, Dst: hn1.addr, Kind: "swpace", Body: netsim.PacketBody{
			Kind: netsim.BodyPace, GuestID: "g", Origin: c.hosts[from].Name(), StreamSeq: mark,
		}})
	}
	naks := func(after sim.Time) uint64 {
		t.Helper()
		if err := c.Run(c.Loop().Now() + after); err != nil {
			t.Fatal(err)
		}
		return hn1.mrx.Stats().NAKsSent
	}
	if n := naks(0); n != 0 {
		t.Fatalf("%d NAKs on a loss-free run", n)
	}
	// Not a peer of g's replica here: ignored.
	beacon(3, 99)
	if n := naks(10 * sim.Millisecond); n != 0 {
		t.Fatalf("a non-peer's beacon caused %d NAKs", n)
	}
	// Control: a live peer claiming a sequence that never arrived is NAKed.
	beacon(0, g.replicas[0].psnd.NextSeq())
	if n := naks(10 * sim.Millisecond); n == 0 {
		t.Fatal("a peer's advertised gap was not NAKed")
	}
	if err := c.Undeploy("g"); err != nil {
		t.Fatal(err)
	}
	before := hn1.mrx.Stats().NAKsSent
	beacon(0, 99)
	if n := naks(50 * sim.Millisecond); n != before {
		t.Fatalf("a departed guest's beacon caused %d NAKs", n-before)
	}
}
