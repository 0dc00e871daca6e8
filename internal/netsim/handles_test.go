package netsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"stopwatch/internal/multicast"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// sendMode is how the property run builds its unicast packets.
type sendMode int

const (
	byHandle  sendMode = iota // endpoints resolved at wiring, AllocTo
	byName                    // AllocPacket(Addr, Addr)
	byLiteral                 // &Packet{Src:, Dst:}
)

func (m sendMode) String() string { return [...]string{"handle", "name", "literal"}[m] }

// runHandleProperty drives one fixed traffic pattern — pings and echoes
// between six nodes, a reliable multicast stream over a lossy link, sends to
// an address nobody has interned — over links shaped by their endpoints'
// access links, through a script of topology mutations (Detach then Attach,
// a partition cut and healed mid-traffic, SetGroup, a late Attach), on K
// shards, and returns each node's delivery trace and the fabric counters.
func runHandleProperty(t *testing.T, mode sendMode, shards int, parallel bool) ([][]string, netsim.Stats) {
	t.Helper()
	ctrl := sim.NewLoop()
	n, err := netsim.New(ctrl, sim.NewSource(11).Stream("net"),
		netsim.LinkConfig{Latency: 2 * sim.Millisecond, JitterMax: 700 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	loops := make([]*sim.Loop, shards)
	for i := range loops {
		loops[i] = sim.NewLoop()
	}
	must(n.SetShards(loops))

	const nodes = 6
	addrOf := func(i int) netsim.Addr { return netsim.Addr(fmt.Sprintf("n%d", i%nodes)) }
	const ghost = netsim.Addr("ghost") // first seen by a Send on a shard goroutine
	traces := make([][]string, nodes+1)
	// Wiring-time resolution, for byHandle: every node knows its peers.
	eps := make([]*netsim.Endpoint, nodes)
	for i := range eps {
		must(n.AssignShard(addrOf(i), i%shards))
		eps[i] = n.Endpoint(addrOf(i))
	}
	// n0's links, and links into it from the nodes without an access link,
	// are slow; the rest take the default.
	must(n.SetAccess("n0", netsim.LinkConfig{Latency: 5 * sim.Millisecond, JitterMax: sim.Millisecond}))
	send := func(from, to int, dst netsim.Addr, kind string, payload any) {
		switch mode {
		case byHandle:
			d := n.Endpoint(dst) // a hit for n*, the racing miss path for ghost
			if to >= 0 {
				d = eps[to%nodes]
			}
			n.Send(n.AllocTo(eps[from], d, 96, kind, payload))
		case byName:
			n.Send(n.AllocPacket(addrOf(from), dst, 96, kind, payload))
		default:
			n.Send(&netsim.Packet{Src: addrOf(from), Dst: dst, Size: 96, Kind: kind, Payload: payload})
		}
	}

	rxs := make([]*multicast.Receiver, nodes)
	fabricNodes := make([]netsim.Node, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		now := loops[i%shards].Now
		rx, err := multicast.NewReceiver(n, loops[i%shards], multicast.ReceiverConfig{
			Addr: addrOf(i),
			OnData: func(src netsim.Addr, seq uint64, kind string, _ netsim.PacketBody) {
				traces[i] = append(traces[i], fmt.Sprintf("%d:mc %s#%d/%s", now(), src, seq, kind))
			},
		})
		must(err)
		rxs[i] = rx
		fabricNodes[i] = &netsim.FuncNode{Addr: addrOf(i), Fn: func(p *netsim.Packet) {
			if rx.Handle(p) {
				return
			}
			traces[i] = append(traces[i], fmt.Sprintf("%d:%s->%s/%s#%v", now(), p.Src, p.Dst, p.Kind, p.Payload))
			if p.Kind != "ping" {
				return
			}
			k := p.Payload.(int)
			for j := range eps {
				if eps[j].Addr() == p.Src {
					send(i, j, p.Src, "echo", k)
				}
			}
			if k%3 == 0 {
				send(i, -1, ghost, "late", k)
			}
		}}
		must(n.Attach(fabricNodes[i]))
	}
	// The stream's hops, and the NAKs back, take the sender's jitter-free
	// access link; its first hop to n3 is lossy: NAKs and repairs flow.
	must(n.AssignShard("mc", 0))
	must(n.SetAccess("mc", netsim.LinkConfig{Latency: 2 * sim.Millisecond}))
	must(n.InjectLoss("mc", "n3", 0.3))
	snd, err := multicast.NewSender(n, loops[0], multicast.SenderConfig{Src: "mc", Group: []netsim.Addr{"n1", "n2", "n3"}})
	must(err)
	must(n.Attach(snd))

	// Every node pings its two clockwise neighbours every 3ms, staggered by
	// node index; node 0's shard also multicasts.
	for i := 0; i < nodes; i++ {
		i := i
		l := loops[i%shards]
		var pump func(k int)
		pump = func(k int) {
			if k == 0 {
				return
			}
			l.AfterTimer(3*sim.Millisecond+sim.Time(i)*sim.Microsecond, "pump", func(_, _ any, _ uint64) {
				send(i, i+1, addrOf(i+1), "ping", k)
				send(i, i+2, addrOf(i+2), "ping", k)
				if i == 0 {
					snd.Multicast("m", 64, netsim.PacketBody{Seq: uint64(k)})
				}
				pump(k - 1)
			}, nil, nil, 0)
		}
		pump(16)
	}
	// Topology mutations, in barrier context on the control loop.
	ctrl.At(14*sim.Millisecond, "detach", func() { n.Detach("n2") })
	ctrl.At(21*sim.Millisecond, "setgroup", func() {
		must(snd.SetGroup([]netsim.Addr{"n3", "n4", "n5"}))
		for _, i := range []int{4, 5} {
			rxs[i].Prime("mc", snd.NextSeq())
		}
		for _, i := range []int{1, 2} {
			rxs[i].Forget("mc")
		}
	})
	ctrl.At(26*sim.Millisecond, "partition", func() { must(n.SetPartitioned("n0", "n1", true)) })
	ctrl.At(29*sim.Millisecond, "heal", func() { must(n.HealLink("n0", "n1")) })
	ctrl.At(31*sim.Millisecond, "attach", func() { must(n.Attach(fabricNodes[2])) })
	ctrl.At(37*sim.Millisecond, "ghost", func() {
		must(n.Attach(&netsim.FuncNode{Addr: ghost, Fn: func(p *netsim.Packet) {
			traces[nodes] = append(traces[nodes], fmt.Sprintf("%d:%s->%s/%s#%v", loops[0].Now(), p.Src, p.Dst, p.Kind, p.Payload))
		}}))
	})

	co := sim.NewCoordinator(ctrl, loops, n.Lookahead, n.Exchange)
	co.SetParallel(parallel)
	must(co.RunUntil(90 * sim.Millisecond))
	snd.Close()
	n.Exchange()
	must(co.RunUntil(120 * sim.Millisecond))
	return traces, n.Stats()
}

// TestHandleSendsEqualNamedSends is the fabric's "names at the edge, IDs
// inside" property: whether a sender holds endpoints, names its endpoints
// per packet or builds packet literals is unobservable — every node sees
// the same deliveries at the same instants, for every shard count,
// sequential and parallel, through detach/attach black-holing, a partition
// mid-traffic, a multicast regroup and an address first interned by
// concurrent shard goroutines.
func TestHandleSendsEqualNamedSends(t *testing.T) {
	base, baseStats := runHandleProperty(t, byLiteral, 1, false)
	for i, tr := range base {
		if len(tr) == 0 {
			t.Fatalf("node %d saw no deliveries", i)
		}
	}
	if baseStats.Lost == 0 {
		t.Fatal("the script black-holed and dropped nothing")
	}
	for _, mode := range []sendMode{byHandle, byName, byLiteral} {
		for _, k := range []int{1, 2, 4} {
			for _, parallel := range []bool{false, true} {
				got, stats := runHandleProperty(t, mode, k, parallel)
				if !reflect.DeepEqual(stats, baseStats) {
					t.Errorf("%s K=%d parallel=%v: stats %+v, want %+v", mode, k, parallel, stats, baseStats)
				}
				for i := range base {
					if !reflect.DeepEqual(got[i], base[i]) {
						t.Errorf("%s K=%d parallel=%v: node %d trace diverged\ngot  %v\nwant %v", mode, k, parallel, i, got[i], base[i])
					}
				}
			}
		}
	}
}

// BenchmarkFabricHop is one Send→Deliver between random pairs of 1024
// attached endpoints: by handle it touches no map at all; by name it pays
// the two lookups of the string edge.
func BenchmarkFabricHop(b *testing.B) {
	const endpoints = 1024
	for _, mode := range []sendMode{byHandle, byName} {
		b.Run(mode.String(), func(b *testing.B) {
			loop := sim.NewLoop()
			n, err := netsim.New(loop, sim.NewSource(1).Stream("fabric"),
				netsim.LinkConfig{Latency: 150 * sim.Microsecond, JitterMax: 50 * sim.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			addrs := make([]netsim.Addr, endpoints)
			eps := make([]*netsim.Endpoint, endpoints)
			for i := range eps {
				addrs[i] = netsim.Addr(fmt.Sprintf("dom0:host%d", i))
				if err := n.Attach(&netsim.FuncNode{Addr: addrs[i]}); err != nil {
					b.Fatal(err)
				}
				eps[i] = n.Endpoint(addrs[i])
			}
			// Each endpoint talks to eight peers, like a Dom0.
			r := sim.NewSource(2).FastStream("pairs")
			pairs := make([][2]int, 8*endpoints)
			for i := range pairs {
				pairs[i] = [2]int{i % endpoints, int(r.UniformDur(0, endpoints))}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if mode == byHandle {
					n.Send(n.AllocTo(eps[p[0]], eps[p[1]], 200, "bench", nil))
				} else {
					n.Send(n.AllocPacket(addrs[p[0]], addrs[p[1]], 200, "bench", nil))
				}
				loop.ProcessNextEvent()
			}
		})
	}
}
