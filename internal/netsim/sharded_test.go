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
// and returns each node's delivery trace. The traces must be identical
// for every K, every node → shard map and sequential vs parallel window
// execution.
func runShardedEcho(t *testing.T, shards int, shardOf func(int) int, parallel bool) [][]string {
	t.Helper()
	ctrl := sim.NewLoop()
	rng := sim.NewSource(7).Stream("net")
	n, err := New(ctrl, rng, LinkConfig{Latency: 2 * sim.Millisecond, JitterMax: 500 * sim.Microsecond})
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
				pump(k - 1)
			}, nil, nil, 0)
		}
		pump(8)
	}
	co := sim.NewCoordinator(ctrl, loops, n.Lookahead, n.Exchange, nil)
	co.SetParallel(parallel)
	if err := co.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n.PendingExchange() != 0 {
		// The last inclusive window may park sends emitted at the horizon;
		// drain them so the traces are complete and pools reclaim.
		n.Exchange()
		if err := co.RunUntil(110 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return traces
}

// TestShardedFabricPartitionInvariance pins the fabric's core guarantee:
// the shard partition is unobservable. Per-node delivery traces (time,
// endpoints, kind) are byte-identical for K=1, K=2 and K=3, round-robin and
// in contiguous blocks, sequential and parallel.
func TestShardedFabricPartitionInvariance(t *testing.T) {
	base := runShardedEcho(t, 1, roundRobin(1), false)
	total := 0
	for _, tr := range base {
		total += len(tr)
	}
	if total == 0 {
		t.Fatal("no deliveries")
	}
	for _, k := range []int{2, 3} {
		for _, m := range []struct {
			name    string
			shardOf func(int) int
		}{{"round-robin", roundRobin(k)}, {"blocks", blocks(k)}} {
			for _, parallel := range []bool{false, true} {
				got := runShardedEcho(t, k, m.shardOf, parallel)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("K=%d %s parallel=%v: per-node delivery traces diverged from K=1\ngot  %v\nwant %v",
						k, m.name, parallel, got, base)
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
	if got := n.PendingExchange(); got != 1 {
		t.Fatalf("PendingExchange = %d, want 1 (cross-shard send must park)", got)
	}
	if got := n.CrossShard(); got != 1 {
		t.Fatalf("CrossShard = %d, want 1", got)
	}
	if loops[1].HasPendingEvents() {
		t.Fatal("cross-shard send reached the destination loop before Exchange")
	}
	n.Exchange()
	if got := n.PendingExchange(); got != 0 {
		t.Fatalf("PendingExchange = %d after Exchange, want 0", got)
	}
	if err := loops[1].RunUntil(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if at != sim.Millisecond {
		t.Fatalf("delivered at %v, want 1ms", at)
	}
}

// TestShardOfFollowsAssignment covers the assignment bookkeeping used by
// the cluster when placing hosts and gateways.
func TestShardOfFollowsAssignment(t *testing.T) {
	ctrl := sim.NewLoop()
	n, err := New(ctrl, sim.NewSource(1).Stream("net"), LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumShards() != 1 {
		t.Fatalf("NumShards = %d before SetShards, want 1", n.NumShards())
	}
	loops := []*sim.Loop{sim.NewLoop(), sim.NewLoop(), sim.NewLoop()}
	if err := n.SetShards(loops); err != nil {
		t.Fatal(err)
	}
	if n.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", n.NumShards())
	}
	if got := n.ShardOf("unassigned"); got != 0 {
		t.Fatalf("ShardOf(unassigned) = %d, want default 0", got)
	}
	if err := n.AssignShard("x", 2); err != nil {
		t.Fatal(err)
	}
	if got := n.ShardOf("x"); got != 2 {
		t.Fatalf("ShardOf(x) = %d, want 2", got)
	}
	if err := n.AssignShard("x", 5); err == nil {
		t.Fatal("AssignShard out of range did not error")
	}
}
