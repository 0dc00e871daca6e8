package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"stopwatch/internal/sim"
)

// echoNodes is runShardedEcho's node count.
const echoNodes = 6

// roundRobin and blocks are two node → shard maps for K shards: node i on
// shard i mod K, or the nodes in K contiguous blocks (the cluster's map).
func roundRobin(k int) func(int) int { return func(i int) int { return i % k } }
func blocks(k int) func(int) int     { return func(i int) int { return i * k / echoNodes } }

// runShardedEcho drives a fixed ping/echo pattern over echoNodes FuncNodes
// pinned onto K shard loops by shardOf under a conservative-lookahead
// coordinator, with every packet drawn from the fabric's pools (so
// cross-shard pool handoff and recycled-event poisoning are exercised),
// and returns each node's delivery trace and the fabric's Stats. Links
// drop 5 % of packets, and node 0 also probes "gone", an address no node
// is attached at. The traces and the Stats must be identical for every K, every node →
// shard map and sequential vs parallel window execution.
func runShardedEcho(t *testing.T, shards int, shardOf func(int) int, parallel bool) ([][]string, Stats) {
	t.Helper()
	ctrl := sim.NewLoop()
	rng := sim.NewSource(7).Stream("net")
	n, err := New(ctrl, rng, LinkConfig{Latency: 2 * sim.Millisecond, JitterMax: 500 * sim.Microsecond, LossProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	loops := make([]*sim.Loop, shards)
	for i := range loops {
		loops[i] = sim.NewLoop()
	}
	if err := n.SetShards(loops); err != nil {
		t.Fatal(err)
	}
	traces := make([][]string, echoNodes)
	for i := 0; i < echoNodes; i++ {
		i := i
		addr := Addr(fmt.Sprintf("n%d", i))
		node := &FuncNode{Addr: addr, Fn: func(p *Packet) {
			traces[i] = append(traces[i], fmt.Sprintf("%d:%s->%s/%s", loops[shardOf(i)].Now(), p.Src, p.Dst, p.Kind))
			// Echo pings back — the reply is pool-owned and usually
			// crosses a shard boundary.
			if p.Kind == "ping" {
				n.Send(n.AllocPacket(addr, p.Src, 64, "echo", nil))
			}
		}}
		if err := n.Attach(node); err != nil {
			t.Fatal(err)
		}
		if err := n.AssignShard(addr, shardOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every node pings its two clockwise neighbours every 3ms, staggered
	// by node index so distinct links produce co-timed arrivals.
	for i := 0; i < echoNodes; i++ {
		i := i
		src := Addr(fmt.Sprintf("n%d", i))
		l := loops[shardOf(i)]
		var pump func(k int)
		pump = func(k int) {
			if k == 0 {
				return
			}
			l.AfterTimer(3*sim.Millisecond+sim.Time(i)*sim.Microsecond, "pump", func(_, _ any, _ uint64) {
				for _, d := range []int{1, 2} {
					dst := Addr(fmt.Sprintf("n%d", (i+d)%echoNodes))
					n.Send(n.AllocPacket(src, dst, 128, "ping", nil))
				}
				if i == 0 {
					n.Send(n.AllocPacket(src, "gone", 32, "probe", nil))
				}
				pump(k - 1)
			}, nil, nil, 0)
		}
		pump(8)
	}
	co := sim.NewCoordinator(ctrl, loops, n.Lookahead, n.Exchange)
	co.SetParallel(parallel)
	if err := co.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The last inclusive window may park sends emitted at the horizon;
	// drain them so the traces are complete and pools reclaim.
	n.Exchange()
	if err := co.RunUntil(110 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	return traces, n.Stats()
}

// TestShardedFabricPartitionInvariance pins the fabric's core guarantee:
// the shard partition is unobservable. Per-node delivery traces (time,
// endpoints, kind) and the per-kind delivered and lost counts of Stats are
// identical for K=1, 2, 3 and 4, round-robin and in contiguous blocks,
// sequential and parallel; Delivered and Lost are the sums of their
// per-kind columns.
func TestShardedFabricPartitionInvariance(t *testing.T) {
	base, baseStats := runShardedEcho(t, 1, roundRobin(1), false)
	total := 0
	for _, tr := range base {
		total += len(tr)
	}
	if total == 0 {
		t.Fatal("no deliveries")
	}
	var delivered, lost uint64
	kinds := map[string]KindStats{}
	for _, ks := range baseStats.ByKind {
		delivered += ks.Delivered
		lost += ks.Lost
		kinds[ks.Kind] = ks
	}
	if delivered != baseStats.Delivered || lost != baseStats.Lost || delivered != uint64(total) {
		t.Fatalf("stats %+v: per-kind sums %d delivered and %d lost, %d deliveries traced", baseStats, delivered, lost, total)
	}
	// Every kind both delivers and drops: pings and echoes to the loss
	// model, probes to the detached address.
	if p := kinds["probe"]; p.Delivered != 0 || p.Lost != 8 || kinds["ping"].Lost == 0 || kinds["echo"].Lost == 0 ||
		kinds["ping"].Delivered == 0 || kinds["echo"].Delivered == 0 || len(kinds) != 3 {
		t.Fatalf("per-kind stats %+v", baseStats.ByKind)
	}
	for _, k := range []int{2, 3, 4} {
		for _, m := range []struct {
			name    string
			shardOf func(int) int
		}{{"round-robin", roundRobin(k)}, {"blocks", blocks(k)}} {
			for _, parallel := range []bool{false, true} {
				got, stats := runShardedEcho(t, k, m.shardOf, parallel)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("K=%d %s parallel=%v: per-node delivery traces diverged from K=1\ngot  %v\nwant %v",
						k, m.name, parallel, got, base)
				}
				if !reflect.DeepEqual(stats.ByKind, baseStats.ByKind) || stats.Delivered != baseStats.Delivered || stats.Lost != baseStats.Lost {
					t.Errorf("K=%d %s parallel=%v: stats %+v, want %+v", k, m.name, parallel, stats, baseStats)
				}
			}
		}
	}
}

// TestCrossShardSendParksUntilExchange verifies the conservative-lookahead
// contract at the fabric layer: a cross-shard send does not appear on the
// destination loop until Exchange runs, and arrives at its exact latency
// afterwards.
func TestCrossShardSendParksUntilExchange(t *testing.T) {
	ctrl := sim.NewLoop()
	n, err := New(ctrl, sim.NewSource(1).Stream("net"), LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	loops := []*sim.Loop{sim.NewLoop(), sim.NewLoop()}
	if err := n.SetShards(loops); err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	sink := &FuncNode{Addr: "b", Fn: func(p *Packet) { at = loops[1].Now() }}
	if err := n.Attach(sink); err != nil {
		t.Fatal(err)
	}
	if err := n.AssignShard("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AssignShard("b", 1); err != nil {
		t.Fatal(err)
	}
	n.Send(&Packet{Src: "a", Dst: "b", Size: 10, Kind: "x"})
	if got := n.CrossShard(); got != 1 {
		t.Fatalf("CrossShard = %d, want 1 (cross-shard send must park)", got)
	}
	if loops[1].HasPendingEvents() {
		t.Fatal("cross-shard send reached the destination loop before Exchange")
	}
	n.Exchange()
	if !loops[1].HasPendingEvents() {
		t.Fatal("Exchange left the parked send off the destination loop")
	}
	if err := loops[1].RunUntil(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if at != sim.Millisecond {
		t.Fatalf("delivered at %v, want 1ms", at)
	}
}

// TestShardOfFollowsAssignment covers the assignment bookkeeping used by
// the cluster when placing hosts and gateways: an address's shard is the
// one AssignShard first gave it, shard 0 if none, and its deliveries are
// scheduled on that shard's loop.
func TestShardOfFollowsAssignment(t *testing.T) {
	ctrl := sim.NewLoop()
	n, err := New(ctrl, sim.NewSource(1).Stream("net"), LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if n.ShardLoop(0) != ctrl {
		t.Fatal("an unsharded fabric's one shard is not on its loop")
	}
	loops := []*sim.Loop{sim.NewLoop(), sim.NewLoop(), sim.NewLoop()}
	if err := n.SetShards(loops); err != nil {
		t.Fatal(err)
	}
	if n.SetShards(nil) == nil || n.SetShards([]*sim.Loop{sim.NewLoop(), nil}) == nil {
		t.Fatal("SetShards accepted no loops or a nil one")
	}
	if n.ShardLoop(2) != loops[2] {
		t.Fatal("a refused SetShards moved shard 2 off its loop")
	}
	if err := n.AssignShard("x", 2); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 5, -1, 1} {
		if err := n.AssignShard("x", k); err == nil {
			t.Fatalf("AssignShard(x, %d) of 3 shards, x on 2, did not error", k)
		}
	}
	// An address keeps its first shard: assigning it again is a no-op.
	if err := n.AssignShard("x", 2); err != nil {
		t.Fatal(err)
	}
	for _, a := range []Addr{"x", "unassigned"} {
		if err := n.Attach(&FuncNode{Addr: a}); err != nil {
			t.Fatal(err)
		}
	}
	for i, hop := range []struct {
		src, dst Addr
		on       int
	}{{"unassigned", "x", 2}, {"x", "unassigned", 0}} {
		n.Send(&Packet{Src: hop.src, Dst: hop.dst, Size: 10, Kind: "x"})
		n.Exchange()
		if got := n.CrossShard(); got != uint64(i+1) {
			t.Fatalf("%s→%s: CrossShard = %d, want %d", hop.src, hop.dst, got, i+1)
		}
		for k, l := range loops {
			if l.HasPendingEvents() != (k == hop.on) {
				t.Fatalf("%s→%s: shard %d pending = %v, want the delivery on shard %d only", hop.src, hop.dst, k, l.HasPendingEvents(), hop.on)
			}
		}
		if err := loops[hop.on].Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossShardHopAllocatesNothing: under traffic that sends more packets
// out of a shard than it brings in — one-way at K = 2, a ring of unequal
// bursts at K = 4 — a steady-state lookahead window (sends, Exchange, every
// shard run to the next barrier) allocates nothing, because Exchange levels
// the packet pools; and after each Exchange no two pools differ by more
// than one packet.
func TestCrossShardHopAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k     int
		burst []int // burst[i]: packets node i sends to node (i+1) mod len per window
	}{
		{"K=2 one-way", 2, []int{6, 0}},
		{"K=4 ring", 4, []int{1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := New(sim.NewLoop(), sim.NewSource(3).Stream("net"),
				LinkConfig{Latency: sim.Millisecond, JitterMax: 200 * sim.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			loops := make([]*sim.Loop, tc.k)
			eps := make([]*Endpoint, tc.k)
			for i := range loops {
				loops[i] = sim.NewLoop()
			}
			if err := n.SetShards(loops); err != nil {
				t.Fatal(err)
			}
			for i := range eps {
				addr := Addr(fmt.Sprintf("n%d", i))
				if err := n.Attach(&FuncNode{Addr: addr}); err != nil {
					t.Fatal(err)
				}
				if err := n.AssignShard(addr, i); err != nil {
					t.Fatal(err)
				}
				eps[i] = n.Endpoint(addr)
			}
			var now sim.Time
			window := func() {
				for i, b := range tc.burst {
					for range b {
						n.Send(n.AllocTo(eps[i], eps[(i+1)%tc.k], 64, "t", nil))
					}
				}
				n.Exchange()
				lo, hi := len(n.shards[0].freePkts), 0
				for _, sh := range n.shards {
					lo, hi = min(lo, len(sh.freePkts)), max(hi, len(sh.freePkts))
				}
				if hi-lo > 1 {
					t.Fatalf("pools after Exchange range over %d..%d packets", lo, hi)
				}
				now += n.Lookahead()
				for _, l := range loops {
					if err := l.RunBefore(now); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range 50 {
				window()
			}
			if allocs := testing.AllocsPerRun(200, window); allocs != 0 {
				t.Errorf("%v allocs per window, want 0", allocs)
			}
		})
	}
}
