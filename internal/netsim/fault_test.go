package netsim

import (
	"errors"
	"testing"

	"stopwatch/internal/sim"
)

func TestPartitionDropsWithoutRNGDraw(t *testing.T) {
	// A partition window covering sends 2..3 must leave the link's RNG
	// stream untouched: the faulted run's survivors see exactly the jitter
	// draws of a run where the partitioned packets were never sent at all.
	deliveries := func(send func(i int) bool, partition func(i int) bool) []sim.Time {
		n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond, JitterMax: 500 * sim.Microsecond})
		var at []sim.Time
		if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) { at = append(at, loop.Now()) }}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := n.SetPartitioned("a", "b", partition(i)); err != nil {
				t.Fatal(err)
			}
			if send(i) {
				n.Send(&Packet{Src: "a", Dst: "b", Size: 64, Kind: "t"})
			}
		}
		if err := loop.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	inWindow := func(i int) bool { return i == 2 || i == 3 }
	always := func(int) bool { return true }
	never := func(int) bool { return false }
	skipped := deliveries(func(i int) bool { return !inWindow(i) }, never)
	faulted := deliveries(always, inWindow)
	if len(skipped) != 4 || len(faulted) != 4 {
		t.Fatalf("deliveries: skipped=%d faulted=%d", len(skipped), len(faulted))
	}
	for i := range faulted {
		if faulted[i] != skipped[i] {
			t.Fatalf("survivor %d arrived at %v, want %v (partition drop consumed an RNG draw)", i, faulted[i], skipped[i])
		}
	}
}

func TestInjectLossOverridesAndClears(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond})
	got := 0
	if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) { got++ }}); err != nil {
		t.Fatal(err)
	}
	burst := func(want int) {
		t.Helper()
		got = 0
		for i := 0; i < 5; i++ {
			n.Send(&Packet{Src: "a", Dst: "b", Size: 64, Kind: "t"})
		}
		if err := loop.Run(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("delivered %d of 5, want %d", got, want)
		}
	}
	if err := n.InjectLoss("a", "b", 1.0); err != nil {
		t.Fatal(err)
	}
	burst(0)
	if err := n.InjectLoss("a", "b", -1); err != nil { // clear
		t.Fatal(err)
	}
	burst(5) // the configured loss, 0
	if s := n.Stats(); s.Delivered != 5 || s.Lost != 5 {
		t.Fatalf("stats %+v, want 5 delivered and 5 lost", s)
	}
	if err := n.InjectLoss("a", "b", 1.5); err == nil {
		t.Fatal("InjectLoss(1.5) should fail")
	}
	if err := n.InjectLoss("", "b", 0.5); err == nil {
		t.Fatal("empty endpoint should fail")
	}
}

func TestHealLinkClearsBothSwitches(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond})
	got := map[Addr]int{}
	for _, a := range []Addr{"a", "b"} {
		if err := n.Attach(&FuncNode{Addr: a, Fn: func(*Packet) { got[a]++ }}); err != nil {
			t.Fatal(err)
		}
	}
	both := func(f func(src, dst Addr) error) {
		t.Helper()
		if err := errors.Join(f("a", "b"), f("b", "a")); err != nil {
			t.Fatal(err)
		}
	}
	both(func(src, dst Addr) error { return n.InjectLoss(src, dst, 1.0) })
	both(func(src, dst Addr) error { return n.SetPartitioned(src, dst, true) })
	n.Send(&Packet{Src: "a", Dst: "b", Size: 64, Kind: "t"})
	both(n.HealLink)
	n.Send(&Packet{Src: "a", Dst: "b", Size: 64, Kind: "t"})
	n.Send(&Packet{Src: "b", Dst: "a", Size: 64, Kind: "t"})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("after heal, delivered %v, want one each way", got)
	}
	if s := n.Stats(); s.Lost != 1 {
		t.Fatalf("lost %d, want only the send before the heal", s.Lost)
	}
}

func TestFaultLossShardInvariant(t *testing.T) {
	// The same faulted traffic on 1 and 2 shards drops the same packets:
	// the loss override feeds the link's own stream, which does not depend
	// on the partition.
	run := func(shardCount int) (delivered, lost uint64) {
		loop := sim.NewLoop()
		rng := sim.NewSource(7).Stream("net")
		n, err := New(loop, rng, LinkConfig{Latency: sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		loops := []*sim.Loop{loop}
		for i := 1; i < shardCount; i++ {
			loops = append(loops, sim.NewLoop())
		}
		if shardCount > 1 {
			if err := n.SetShards(loops); err != nil {
				t.Fatal(err)
			}
			if err := n.AssignShard("b", 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) {}}); err != nil {
			t.Fatal(err)
		}
		if err := n.InjectLoss("a", "b", 0.5); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			n.Send(&Packet{Src: "a", Dst: "b", Size: 64, Kind: "t"})
		}
		n.Exchange()
		for _, l := range loops {
			if err := l.Run(); err != nil {
				t.Fatal(err)
			}
		}
		s := n.Stats()
		return s.Delivered, s.Lost
	}
	d1, l1 := run(1)
	d2, l2 := run(2)
	if d1 != d2 || l1 != l2 {
		t.Fatalf("shard variance: 1 shard (%d, %d) vs 2 shards (%d, %d)", d1, l1, d2, l2)
	}
	if l1 == 0 || d1 == 0 {
		t.Fatalf("want a mix of drops and deliveries, got delivered=%d lost=%d", d1, l1)
	}
}
