package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// TestEdgeRunsOnGuestShard: a guest's edge — its service address, ingress
// stream and egress node — lives on its home shard, the shard of its first
// replica's machine at its first deployment. At K = 2, echo traffic from a
// shard-0 client then crosses a shard exactly on the client legs of a guest
// homed on shard 1, and wherever a guest's replicas and edge straddle the
// boundary: Dom0 arrivals from the other shard (ingress stream, proposals,
// beacons) and the tunnels of replicas away from home. An id evicted and
// re-admitted on the other shard's machines keeps its first home. Output
// digests and fabric counts are the same at K = 1 and 2.
func TestEdgeRunsOnGuestShard(t *testing.T) {
	type result struct {
		digests map[string][]uint64
		replies map[netsim.Addr]int
		stats   netsim.Stats
	}
	play := func(shards int) result {
		cfg := DefaultClusterConfig()
		cfg.Hosts, cfg.Shards = 8, shards
		c := mustCluster(t, cfg)
		net := c.Net()
		// Hosts 0-3 are shard 0 and 4-7 shard 1 at K = 2. a stays on shard 0,
		// b starts on shard 1 and comes back on shard 0's machines, and s is
		// homed on shard 0 with two replicas on shard 1.
		first := map[string][]int{"a": {0, 1, 2}, "b": {5, 6, 7}, "s": {3, 4, 5}}
		home := map[string]int{}
		for id, hosts := range first {
			home[id] = c.shardOf(hosts[0])
		}
		edgeOn := func(when, id string) {
			t.Helper()
			for _, a := range []netsim.Addr{ServiceAddr(id), c.Ingress().SourceAddr(id), c.Egress().GuestAddr(id)} {
				if k, fixed := net.Endpoint(a).Home(); k != home[id] || !fixed {
					t.Errorf("K=%d %s: %s on shard %d (fixed %v), want guest %s's home %d", shards, when, a, k, fixed, id, home[id])
				}
			}
		}

		// Every Dom0 counts the arrivals from another shard, and the client
		// the replies that crossed to it; both run on shard goroutines.
		var dom0Crossed, repliesCrossed atomic.Uint64
		for i, hn := range c.hostNodes {
			k := c.shardOf(i)
			if err := net.Attach(&netsim.FuncNode{Addr: hn.addr, Fn: func(p *netsim.Packet) {
				if src, _ := net.Endpoint(p.Src).Home(); src != k {
					if p.Body.GuestID == "a" {
						t.Errorf("guest a's %s from %s crossed a shard", p.Kind, p.Src)
					}
					dom0Crossed.Add(1)
				}
				hn.Deliver(p)
			}}); err != nil {
				t.Fatal(err)
			}
		}
		replies := map[netsim.Addr]int{}
		if err := net.Attach(&netsim.FuncNode{Addr: "laptop", Fn: func(p *netsim.Packet) {
			replies[p.Src]++
			if k, _ := net.Endpoint(p.Src).Home(); k != 0 {
				repliesCrossed.Add(1)
			}
		}}); err != nil {
			t.Fatal(err)
		}
		client := net.Endpoint("laptop")

		var guests []*Guest
		deploy := func(id string, hosts []int) {
			g, err := c.Deploy(id, hosts, func() guest.App { return echoApp{} })
			if err != nil {
				t.Fatal(err)
			}
			guests = append(guests, g)
		}
		var requestsCrossed uint64
		pings := func(id string, from sim.Time) {
			for k := range 8 {
				c.Loop().At(from+sim.Time(5*k)*sim.Millisecond, "ping", func() {
					svc := net.Endpoint(ServiceAddr(id))
					if s, _ := svc.Home(); s != 0 {
						requestsCrossed++
					}
					net.Send(net.AllocTo(client, svc, 64, "ping", uint64(k)))
				})
			}
		}
		for _, id := range []string{"a", "b", "s"} {
			deploy(id, first[id])
			edgeOn("deployed", id)
			pings(id, 20*sim.Millisecond)
		}
		c.Start()
		c.Loop().At(150*sim.Millisecond, "evict b", func() {
			if err := c.Undeploy("b"); err != nil {
				t.Error(err)
			}
		})
		c.Loop().At(200*sim.Millisecond, "re-admit b", func() {
			deploy("b", []int{0, 1, 2})
			edgeOn("re-admitted", "b")
		})
		pings("b", 220*sim.Millisecond)
		c.Loop().At(400*sim.Millisecond, "evict all", func() {
			for _, id := range []string{"a", "b", "s"} {
				if err := c.Undeploy(id); err != nil {
					t.Error(err)
				}
			}
		})
		// Past the last eviction by more than any flight: nothing in transit.
		if err := c.Run(500 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}

		res := result{digests: map[string][]uint64{}, replies: replies, stats: net.Stats()}
		var tunnelsCrossed uint64
		for i, g := range guests {
			if err := g.CheckLockstep(); err != nil {
				t.Fatal(err)
			}
			for _, r := range g.Replicas() {
				vm := r.Runtime().VM()
				if n := vm.OutputCount(); n != 8 {
					t.Fatalf("K=%d: guest %s #%d replica %d echoed %d of 8", shards, g.ID, i, r.Slot(), n)
				}
				if c.shardOf(r.Host()) != home[g.ID] {
					tunnelsCrossed += uint64(vm.OutputCount())
				}
				res.digests[g.ID] = append(res.digests[g.ID], vm.OutputDigest())
			}
		}
		for id, n := range map[string]int{"a": 8, "b": 16, "s": 8} {
			if got := replies[ServiceAddr(id)]; got != n {
				t.Fatalf("K=%d: the client got %d replies from %s, want %d", shards, got, id, n)
			}
		}
		clientLegs := requestsCrossed + repliesCrossed.Load()
		if shards == 2 && (clientLegs != 32 || dom0Crossed.Load() == 0 || tunnelsCrossed == 0) {
			t.Fatalf("client legs %d (want b's 16 requests and 16 replies), Dom0 arrivals %d, tunnels %d: want both > 0",
				clientLegs, dom0Crossed.Load(), tunnelsCrossed)
		}
		if got, want := net.CrossShard(), clientLegs+dom0Crossed.Load()+tunnelsCrossed; got != want {
			t.Fatalf("K=%d: %d cross-shard sends, want %d client legs + %d Dom0 arrivals + %d tunnels = %d",
				shards, got, clientLegs, dom0Crossed.Load(), tunnelsCrossed, want)
		}
		return res
	}
	one, two := play(1), play(2)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("K=1 and K=2 differ:\n%+v\n%+v", one, two)
	}
}

// TestFrontDoorCopiesCountOnGuestShard: a copy tunnelled to the shared
// egress front door (shard 0) crosses the fabric to its guest's own node,
// which counts it and forwards the output on the guest's home shard. At
// K = 2 guest b is homed on shard 1, and its replicas keep that shard busy
// while the front door takes copies for it: a front door that counted them
// itself would touch the node's state from shard 0's goroutine. Each output
// forwards two hops after its median copy left (tap → front door → node),
// and the forwards are the same at K = 1 and 2.
func TestFrontDoorCopiesCountOnGuestShard(t *testing.T) {
	const outputs = 40
	play := func(shards int) []sim.Time {
		cfg := DefaultClusterConfig()
		cfg.Hosts, cfg.Shards = 8, shards
		c := mustCluster(t, cfg)
		net := c.Net()
		if _, err := c.Deploy("b", []int{5, 6, 7}, func() guest.App { return echoApp{} }); err != nil {
			t.Fatal(err)
		}
		if k, _ := net.Endpoint(c.Egress().GuestAddr("b")).Home(); k != shards-1 {
			t.Fatalf("K=%d: guest b homed on shard %d", shards, k)
		}
		got := 0
		if err := net.Attach(&netsim.FuncNode{Addr: "laptop", Fn: func(*netsim.Packet) { got++ }}); err != nil {
			t.Fatal(err)
		}
		// OnForward runs on b's shard; the slice is read after the run.
		forwardedAt := make([]sim.Time, outputs+1)
		c.Egress().OnForward = func(id string, seq uint64, at sim.Time) {
			if id != "b" || seq == 0 || seq > outputs {
				t.Errorf("forwarded %s/%d", id, seq)
				return
			}
			forwardedAt[seq] = at
		}
		tap, door := net.Endpoint("tap"), net.Endpoint(c.Egress().Addr())
		sentAt := make([]sim.Time, outputs+1)
		for seq := uint64(1); seq <= outputs; seq++ {
			at := 20*sim.Millisecond + sim.Time(seq)*700*sim.Microsecond
			c.Loop().At(at, "copies", func() {
				sentAt[seq] = at
				for _, origin := range []string{"host5", "host6", "host7"} {
					p := net.AllocTo(tap, door, 64, "egress:tunnel", nil)
					p.Body = netsim.PacketBody{Kind: netsim.BodyEgress, GuestID: "b", Origin: origin, Seq: seq,
						OrigDst: "laptop", Size: 64, Data: seq}
					net.Send(p)
				}
			})
		}
		c.Start()
		if err := c.Run(100 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got != outputs || c.Egress().Forwarded() != outputs || c.Egress().PendingGroups() != 0 {
			t.Fatalf("K=%d: laptop got %d, forwarded %d, pending %d; want %d, %d, 0",
				shards, got, c.Egress().Forwarded(), c.Egress().PendingGroups(), outputs, outputs)
		}
		for seq := 1; seq <= outputs; seq++ {
			if hops := forwardedAt[seq] - sentAt[seq]; hops < 2*cfg.CloudLink.Latency {
				t.Fatalf("K=%d: output %d forwarded %v after its copies left, under two hops", shards, seq, hops)
			}
		}
		return forwardedAt
	}
	if one, two := play(1), play(2); !reflect.DeepEqual(one, two) {
		t.Fatalf("forwards differ at K=1 and K=2:\n%v\n%v", one, two)
	}
}
