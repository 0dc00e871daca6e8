package core

import (
	"fmt"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
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
// replica sends one peer, after which the stream is silent. Nothing runs a
// timer: the peer's next pacing beacon acks what it holds, the sender
// resends the rest once it is older than a round trip — within
// PaceInterval + 2·(Latency+JitterMax) + JitterMax of the lost send — the
// resend resolves the delivery in every replica's future and lockstep
// holds, on one shard and on two.
func TestProposalTailLossFoundByBeacon(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, g, send := probeCluster(t, shards)
			w0, w1 := g.replicas[0], g.replicas[1]
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
			if w0.sent != 2 || w0.resent != 0 {
				t.Fatalf("warm-up: %d proposals, %d resends", w0.sent, w0.resent)
			}
			if err := c.Net().InjectLoss(w0.hn.addr, w1.hn.addr, 1); err != nil {
				t.Fatal(err)
			}
			c.Loop().At(100*sim.Millisecond, "send", send)
			// Advance in slices finer than any of the bounds below, healing
			// the link the moment the third proposal has left (and been lost).
			const slice = 50 * sim.Microsecond
			var sentAt, resentAt sim.Time
			for now := 100 * sim.Millisecond; resentAt == 0 && now < 200*sim.Millisecond; now += slice {
				step(now)
				if sentAt == 0 && w0.sent == 3 {
					sentAt = now
					if err := c.Net().InjectLoss(w0.hn.addr, w1.hn.addr, -1); err != nil {
						t.Fatal(err)
					}
				}
				if w0.resent > 0 {
					resentAt = now
				}
			}
			if sentAt == 0 || resentAt == 0 {
				t.Fatalf("proposal sent at %v, resent at %v", sentAt, resentAt)
			}
			link := c.cfg.CloudLink
			bound := vmm.PaceInterval + 2*(link.Latency+link.JitterMax) + link.JitterMax + slice
			if resentAt-sentAt > bound {
				t.Fatalf("tail loss resent %v after the send, bound %v", resentAt-sentAt, bound)
			}
			step(400 * sim.Millisecond)
			if n := w0.resent; n != 1 {
				t.Fatalf("%d resends, want 1", n)
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
			if n := w0.out.Len(); n != 0 {
				t.Fatalf("%d proposals still unacked", n)
			}
			if len(c.shardLoops) != shards {
				t.Fatalf("ran on %d shards", len(c.shardLoops))
			}
		})
	}
}

// TestLostResendRetriedAtEveryBeacon keeps the link down after the tail
// loss, so the resends are lost too. The peer's beacons keep arriving every
// PaceInterval, each acking the same proposal, and each one is answered by
// a resend; the first resend after the link heals resolves the delivery,
// and the peer's next beacon acks it.
func TestLostResendRetriedAtEveryBeacon(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	w0, w1 := g.replicas[0], g.replicas[1]
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(60 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Net().InjectLoss(w0.hn.addr, w1.hn.addr, 1); err != nil {
		t.Fatal(err)
	}
	c.Loop().At(100*sim.Millisecond, "send", send)
	const slice = 50 * sim.Microsecond
	var resentAt []sim.Time
	for now := 100 * sim.Millisecond; len(resentAt) < 5 && now < 200*sim.Millisecond; now += slice {
		if err := c.Run(now); err != nil {
			t.Fatal(err)
		}
		if w0.resent > uint64(len(resentAt)) {
			resentAt = append(resentAt, now)
		}
	}
	if len(resentAt) < 5 {
		t.Fatalf("resends at %v", resentAt)
	}
	pace := vmm.PaceInterval
	slack := c.cfg.CloudLink.JitterMax + slice
	for i := 1; i < len(resentAt); i++ {
		if gap := resentAt[i] - resentAt[i-1]; gap < pace-slack || gap > pace+slack {
			t.Fatalf("resend %d came %v after the one before, want PaceInterval = %v: %v", i, gap, pace, resentAt)
		}
	}
	if err := c.Net().InjectLoss(w0.hn.addr, w1.hn.addr, -1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(c.Loop().Now() + 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := w0.resent; n != 6 || w0.out.Len() != 0 {
		t.Fatalf("after the heal: %d resends, %d unacked; want 6, 0", n, w0.out.Len())
	}
	for _, r := range g.Replicas() {
		if n := len(r.App().(*apps.ProbeApp).DeliveryTimes()); n != 2 || r.NetDev().Pending() != 0 {
			t.Fatalf("replica %d: %d deliveries, %d pending", r.Slot(), n, r.NetDev().Pending())
		}
	}
}

// TestLostAcksDoNotStopResends loses one proposal and the resend the peer's
// next beacon asks for, and from then on every beacon the peer sends back.
// The sender's own beacons retry the resend once no ack has covered it for
// longer than a loss-free ack can take — within 2·PaceInterval +
// 2·(Latency+JitterMax) of the lost resend — so the delivery still resolves
// in every replica's future.
func TestLostAcksDoNotStopResends(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	w0, w1 := g.replicas[0], g.replicas[1]
	step := func(until sim.Time) {
		t.Helper()
		if err := c.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	loss := func(from, to netsim.Addr, prob float64) {
		t.Helper()
		if err := c.Net().InjectLoss(from, to, prob); err != nil {
			t.Fatal(err)
		}
	}
	c.Loop().At(20*sim.Millisecond, "send", send)
	step(60 * sim.Millisecond)
	loss(w0.hn.addr, w1.hn.addr, 1)
	c.Loop().At(100*sim.Millisecond, "send", send)
	const slice = 50 * sim.Microsecond
	var lostAt, retriedAt sim.Time
	for now := 100 * sim.Millisecond; retriedAt == 0 && now < 200*sim.Millisecond; now += slice {
		step(now)
		switch n := w0.resent; {
		case lostAt == 0 && n == 1:
			// The first resend has left into the lossy leg: heal it, and
			// lose the peer's acks instead.
			lostAt = now
			loss(w0.hn.addr, w1.hn.addr, -1)
			loss(w1.hn.addr, w0.hn.addr, 1)
		case n == 2:
			retriedAt = now
		}
	}
	if lostAt == 0 || retriedAt == 0 {
		t.Fatalf("resend lost at %v, retried at %v", lostAt, retriedAt)
	}
	link := c.cfg.CloudLink
	bound := 2*vmm.PaceInterval + 2*(link.Latency+link.JitterMax) + slice
	if retriedAt-lostAt > bound {
		t.Fatalf("with every ack lost, the resend was retried %v after it, bound %v", retriedAt-lostAt, bound)
	}
	// The acks come back, and the next one retires the proposal.
	loss(w1.hn.addr, w0.hn.addr, -1)
	step(c.Loop().Now() + 100*sim.Millisecond)
	if n := w0.out.Len(); n != 0 {
		t.Fatalf("%d proposals still unacked", n)
	}
	for _, r := range g.Replicas() {
		if n := len(r.App().(*apps.ProbeApp).DeliveryTimes()); n != 2 || r.NetDev().Pending() != 0 {
			t.Fatalf("replica %d: %d deliveries, %d pending", r.Slot(), n, r.NetDev().Pending())
		}
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if g.Divergences() != 0 {
		t.Fatalf("divergences: %d", g.Divergences())
	}
}

// TestStaleBeaconTriggersNoResend: a beacon's ack reaches the proposal
// window only through the resident guest's wiring and only from a current
// peer — so one from a machine outside the group, or one still in flight
// when its guest departs, resends nothing.
func TestStaleBeaconTriggersNoResend(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	w0, w1 := g.replicas[0], g.replicas[1]
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(80 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Host 1 neither gets host 0's next proposal nor acks anything, so the
	// proposal stays in host 0's window for the beacons below to find.
	if err := c.Net().InjectLoss(w0.hn.addr, w1.hn.addr, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Net().InjectLoss(w1.hn.addr, w0.hn.addr, 1); err != nil {
		t.Fatal(err)
	}
	c.Loop().At(100*sim.Millisecond, "send", send)
	if err := c.Run(110 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// No beacon has shown it missing, so host 0's own beacons resend nothing.
	if w0.sent != 2 || w0.out.Len() != 1 || w0.resent != 0 {
		t.Fatalf("%d proposals, %d unacked, %d resends; want 2, 1, 0", w0.sent, w0.out.Len(), w0.resent)
	}
	// Each forged packet names the wiring it is for and the one it comes
	// from; host 3's stands in for a machine outside the group.
	hn0 := c.hostNodes[0]
	wiring := map[int]*replicaWiring{0: w0, 1: w1, 3: {hn: c.hostNodes[3], hostName: c.hosts[3].Name()}}
	beacon := func(from int) {
		hn0.Deliver(&netsim.Packet{Src: c.hostNodes[from].addr, Dst: hn0.addr, Kind: "swpace", Payload: w0, Body: netsim.PacketBody{
			Kind: netsim.BodyPace, GuestID: "g", Origin: c.hosts[from].Name(), StreamSeq: 1, Data: wiring[from],
		}})
	}
	// A proposal resent after it landed, or sent by a machine outside the
	// group, stops before host 1's device.
	hn1, stale := c.hostNodes[1], w1.nd.StaleDrops()
	for _, from := range []int{0, 3} {
		hn1.Deliver(&netsim.Packet{Src: c.hostNodes[from].addr, Dst: hn1.addr, Kind: "swprop", Payload: w1, Body: netsim.PacketBody{
			Kind: netsim.BodyProp, GuestID: "g", Origin: c.hosts[from].Name(), View: g.view, Seq: 1, StreamSeq: 1, Data: wiring[from],
		}})
	}
	if n := w1.nd.StaleDrops(); n != stale {
		t.Fatalf("%d stale proposals reached host 1's device", n-stale)
	}
	// Not a peer of g's replica here: ignored.
	beacon(3)
	if n := w0.resent; n != 0 {
		t.Fatalf("a non-peer's beacon caused %d resends", n)
	}
	// Control: host 1 acking only the first proposal is answered at once.
	beacon(1)
	if n := w0.resent; n != 1 {
		t.Fatalf("a peer's ack caused %d resends, want 1", n)
	}
	if err := c.Undeploy("g"); err != nil {
		t.Fatal(err)
	}
	beacon(1)
	if n := w0.resent; n != 1 {
		t.Fatalf("a departed guest's beacon caused %d resends", n-1)
	}
}

// TestProposalLossFreeRunResendsNothing: on a loss-free fabric a proposal
// is acked before it is old enough to resend — a beacon sent before the
// proposal landed is still younger than the round trip when it arrives —
// so three replicas exchanging a stream of proposals resend none, on one
// shard and on two, and no window holds more than the few proposals in
// flight. Dropping the age rule resends whenever a beacon crosses a
// proposal on the wire.
func TestProposalLossFreeRunResendsNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, g, send := probeCluster(t, shards)
			const packets = 100
			for i := range packets {
				c.Loop().At(sim.Time(20+7*i)*sim.Millisecond, "send", send)
			}
			widest := 0
			for now := sim.Time(0); now < sim.Time(40+7*packets)*sim.Millisecond; now += sim.Millisecond / 4 {
				if err := c.Run(now); err != nil {
					t.Fatal(err)
				}
				for _, w := range g.replicas {
					widest = max(widest, w.out.Len())
				}
			}
			for _, w := range g.replicas {
				if w.sent != packets {
					t.Fatalf("host %d proposed %d times, want %d", w.hostIdx, w.sent, packets)
				}
				if w.resent != 0 {
					t.Fatalf("host %d resent %d proposals", w.hostIdx, w.resent)
				}
			}
			if widest > 2 {
				t.Fatalf("a proposal window held %d entries", widest)
			}
			if err := g.CheckLockstep(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSoleSurvivorKeepsNoProposals: a replica whose peers have all died
// resolves alone; it sends its proposals nowhere and keeps none of them.
func TestSoleSurvivorKeepsNoProposals(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	w0 := g.replicas[0]
	if err := c.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The peers crash; one settle window on, their last beacons have landed
	// and the survivor's view drops them.
	for _, m := range []int{1, 2} {
		if err := c.FailMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(25 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2} {
		if err := c.MarkReplicaDead("g", m); err != nil {
			t.Fatal(err)
		}
	}
	// Count the proposals that reach the dead peers' Dom0s.
	toDead := 0
	for _, peer := range g.replicas[1:] {
		hn := peer.hn
		if err := c.Net().Attach(&netsim.FuncNode{Addr: hn.addr, Fn: func(p *netsim.Packet) {
			if p.Kind == "swprop" {
				toDead++
			}
			hn.Deliver(p)
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 3 {
		c.Loop().At(sim.Time(40+10*i)*sim.Millisecond, "send", send)
	}
	if err := c.Run(400 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := len(w0.app.(*apps.ProbeApp).DeliveryTimes()); n != 3 || w0.sent != 3 {
		t.Fatalf("sole survivor delivered %d packets after %d proposals, want 3 and 3", n, w0.sent)
	}
	if toDead != 0 {
		t.Fatalf("%d proposals sent to dead hosts", toDead)
	}
	if n := w0.out.Len(); n != 0 {
		t.Fatalf("sole survivor keeps %d proposals", n)
	}
}

// TestFormerPeerBeaconDoesNotHoldSoleSurvivor: a pacing beacon from the Dom0
// of a peer the view has dropped — one still in flight when the view
// changed — lands at the sole survivor, which keeps running. Before, the
// beacon put the former peer back into the pacing maximum for good, and the
// survivor paused MaxLead past the stale report it carried.
func TestFormerPeerBeaconDoesNotHoldSoleSurvivor(t *testing.T) {
	c, g, _ := probeCluster(t, 1)
	w0, w1 := g.replicas[0], g.replicas[1]
	if err := c.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	stale := w1.rt.VirtAtLastExit()
	for _, m := range []int{1, 2} {
		if err := c.FailMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(45 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2} {
		if err := c.MarkReplicaDead("g", m); err != nil {
			t.Fatal(err)
		}
	}
	c.Loop().At(50*sim.Millisecond, "beacon", func() {
		c.Net().Send(&netsim.Packet{Src: w1.hn.addr, Dst: w0.hn.addr, Size: 48, Kind: "swpace", Payload: w0,
			Body: netsim.PacketBody{Kind: netsim.BodyPace, GuestID: "g", Origin: w1.hostName, Virt: stale, Data: w1}})
	})
	if err := c.Run(60 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	from := w0.rt.VirtAtLastExit()
	if err := c.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if moved := w0.rt.VirtAtLastExit() - from; moved < vtime.Virtual(470*sim.Millisecond) {
		t.Fatalf("the sole survivor moved %v of virtual time in 940ms after a former peer's beacon", moved)
	}
}

// paceSpy counts the proposals its replica had numbered at each pacing
// beacon it sent, in order, then sends the beacons.
type paceSpy struct {
	w      *replicaWiring
	sentAt []uint64
}

func (s *paceSpy) PaceReport(v vtime.Virtual, epoch int64, e vtime.EpochSample) {
	s.sentAt = append(s.sentAt, s.w.sent)
	s.w.PaceReport(v, epoch, e)
}

// TestProposalNeverTrailsALaterBeacon: a proposal and the pacing beacons
// share one FIFO link per replica pair, so at the receiving Dom0 every
// proposal lands before any beacon its sender sent after it to that peer —
// the ordering that lets a beacon vouch for the proposals sent before it.
// Jitter on, no loss, a stream of client packets, on one shard and on two.
func TestProposalNeverTrailsALaterBeacon(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := DefaultClusterConfig()
			cfg.Hosts, cfg.Shards = 4, shards
			c := mustCluster(t, cfg)
			g, err := c.Deploy("g", []int{0, 1, 2}, func() guest.App { return apps.NewProbeApp() })
			if err != nil {
				t.Fatal(err)
			}
			w0, w1 := g.replicas[0], g.replicas[1]
			// Both installed before Start, which sends the first beacons.
			spy := &paceSpy{w: w0}
			w0.rt.OnPace = spy
			// At host 1's Dom0, in arrival order: how many of w0's proposals
			// had landed when each of its beacons did.
			var landed uint64
			var heldAt []uint64
			hn1 := w1.hn
			if err := c.Net().Attach(&netsim.FuncNode{Addr: hn1.addr, Fn: func(p *netsim.Packet) {
				if p.Body.GuestID == "g" && p.Body.Origin == w0.hostName {
					switch p.Kind {
					case "swprop":
						landed++
					case "swpace":
						heldAt = append(heldAt, landed)
					}
				}
				hn1.Deliver(p)
			}}); err != nil {
				t.Fatal(err)
			}
			c.Start()
			send := func() {
				c.Net().Send(&netsim.Packet{Src: "client", Dst: ServiceAddr("g"), Size: 64, Kind: "probe"})
			}
			const packets = 200
			for i := range packets {
				c.Loop().At(sim.Time(20+3*i)*sim.Millisecond+sim.Time(i%7)*sim.Microsecond, "send", send)
			}
			if err := c.Run(sim.Time(40+3*packets) * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if w0.sent != packets || landed != packets {
				t.Fatalf("host 0 proposed %d times and host 1 got %d, want %d", w0.sent, landed, packets)
			}
			// All but the one in flight at the end landed, in send order.
			if len(heldAt) > len(spy.sentAt) || len(heldAt)+1 < len(spy.sentAt) {
				t.Fatalf("%d beacons landed of %d sent", len(heldAt), len(spy.sentAt))
			}
			for k, held := range heldAt {
				if held < spy.sentAt[k] {
					t.Fatalf("beacon %d landed with %d of the %d proposals sent before it", k, held, spy.sentAt[k])
				}
			}
			if err := g.CheckLockstep(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
