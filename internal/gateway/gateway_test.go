package gateway

import (
	"errors"
	"testing"

	"stopwatch/internal/multicast"
	"stopwatch/internal/netsim"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
)

func testFabric(t *testing.T, seed uint64, loss float64) (*netsim.Network, *sim.Loop) {
	t.Helper()
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(seed).Stream("net"), netsim.LinkConfig{
		Latency:  500 * sim.Microsecond,
		LossProb: loss,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, loop
}

func TestServiceAddr(t *testing.T) {
	if ServiceAddr("g1") != "svc:g1" {
		t.Fatalf("ServiceAddr = %q", ServiceAddr("g1"))
	}
}

func TestIngressReplicatesToAllHosts(t *testing.T) {
	net, loop := testFabric(t, 1, 0)
	in, err := NewIngress(net, loop, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	hosts := []netsim.Addr{"dom0:A", "dom0:B", "dom0:C"}
	got := map[netsim.Addr][]netsim.PacketBody{}
	for _, h := range hosts {
		h := h
		rx, err := multicast.NewReceiver(net, loop, multicast.ReceiverConfig{
			Addr: h,
			OnData: func(_ netsim.Addr, _ uint64, _ string, body netsim.PacketBody) {
				got[h] = append(got[h], body)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(&netsim.FuncNode{Addr: h, Fn: func(p *netsim.Packet) { rx.Handle(p) }}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.RegisterGuest("g1", hosts); err != nil {
		t.Fatal(err)
	}
	// Client sends two packets to the guest's public address.
	for i := 0; i < 2; i++ {
		net.Send(&netsim.Packet{Src: "client", Dst: ServiceAddr("g1"), Size: 100, Kind: "req", Payload: i})
	}
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if in.Replicated() != 2 {
		t.Fatalf("replicated = %d", in.Replicated())
	}
	for _, h := range hosts {
		if len(got[h]) != 2 {
			t.Fatalf("host %s got %d messages", h, len(got[h]))
		}
		if got[h][0].ClientSrc != "client" || got[h][0].Data != 0 || got[h][1].Data != 1 {
			t.Fatalf("host %s payloads wrong: %+v", h, got[h])
		}
	}
}

func TestIngressRecoversFromLoss(t *testing.T) {
	net, loop := testFabric(t, 3, 0.25)
	in, err := NewIngress(net, loop, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	hosts := []netsim.Addr{"dom0:A", "dom0:B", "dom0:C"}
	counts := map[netsim.Addr]int{}
	for _, h := range hosts {
		h := h
		rx, err := multicast.NewReceiver(net, loop, multicast.ReceiverConfig{
			Addr:   h,
			OnData: func(netsim.Addr, uint64, string, netsim.PacketBody) { counts[h]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(&netsim.FuncNode{Addr: h, Fn: func(p *netsim.Packet) { rx.Handle(p) }}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.RegisterGuest("g1", hosts); err != nil {
		t.Fatal(err)
	}
	// The lossy legs under test are ingress→hosts (the multicast). The
	// client→ingress leg is a plain fabric hop whose reliability belongs to
	// the transport layer, so the client's access link keeps it clean here.
	if err := net.SetAccess("client", netsim.LinkConfig{Latency: 500 * sim.Microsecond}); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		loop.At(sim.Time(i)*sim.Millisecond, "send", func() {
			net.Send(&netsim.Packet{Src: "client", Dst: ServiceAddr("g1"), Size: 100, Kind: "req", Payload: i})
		})
	}
	if err := loop.RunUntil(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if counts[h] != n {
			t.Fatalf("host %s got %d/%d despite NAK recovery", h, counts[h], n)
		}
	}
}

func TestIngressValidation(t *testing.T) {
	net, loop := testFabric(t, 5, 0)
	if _, err := NewIngress(nil, loop, "i"); !errors.Is(err, ErrGateway) {
		t.Fatal("nil net should fail")
	}
	if _, err := NewIngress(net, loop, ""); !errors.Is(err, ErrGateway) {
		t.Fatal("empty addr should fail")
	}
	in, err := NewIngress(net, loop, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RegisterGuest("", []netsim.Addr{"a"}); !errors.Is(err, ErrGateway) {
		t.Fatal("empty guest should fail")
	}
	if err := in.RegisterGuest("g", nil); !errors.Is(err, ErrGateway) {
		t.Fatal("no hosts should fail")
	}
	if err := in.RegisterGuest("g", []netsim.Addr{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := in.RegisterGuest("g", []netsim.Addr{"a"}); !errors.Is(err, ErrGateway) {
		t.Fatal("duplicate registration should fail")
	}
}

func tunnel(net *netsim.Network, egress netsim.Addr, replica string, guestID string, seq uint64, dst netsim.Addr, data any) {
	net.Send(&netsim.Packet{
		Src:  netsim.Addr("dom0:" + replica),
		Dst:  egress,
		Size: 100,
		Kind: "egress:tunnel",
		Body: netsim.PacketBody{
			Kind:    netsim.BodyEgress,
			GuestID: guestID,
			Origin:  replica,
			Seq:     seq,
			OrigDst: dst,
			Size:    100,
			Data:    data,
		},
	})
}

func TestEgressForwardsOnSecondCopy(t *testing.T) {
	net, loop := testFabric(t, 7, 0)
	var arrivals []sim.Time
	var payloads []any
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(p *netsim.Packet) {
		arrivals = append(arrivals, loop.Now())
		payloads = append(payloads, p.Payload)
	}}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	var fwdAt []sim.Time
	eg.OnForward = func(g string, seq uint64, at sim.Time) { fwdAt = append(fwdAt, at) }

	// Replica copies arrive at 1ms, 5ms, 9ms — forward must fire at the
	// SECOND copy (5ms), the median emission, and end the group there.
	loop.At(1*sim.Millisecond, "a", func() { tunnel(net, "egress", "A", "g1", 1, "client", "resp") })
	loop.At(5*sim.Millisecond, "b", func() { tunnel(net, "egress", "B", "g1", 1, "client", "resp") })
	loop.At(9*sim.Millisecond, "c", func() { tunnel(net, "egress", "C", "g1", 1, "client", "resp") })
	if err := loop.RunUntil(8 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if eg.Forwarded() != 1 || eg.PendingGroups() != 0 {
		t.Fatalf("after the second copy: forwarded %d, pending %d; want 1, 0", eg.Forwarded(), eg.PendingGroups())
	}
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 1 {
		t.Fatalf("client got %d packets, want exactly 1", len(arrivals))
	}
	if payloads[0] != "resp" {
		t.Fatalf("payload %v", payloads[0])
	}
	if len(fwdAt) != 1 || fwdAt[0] < 5*sim.Millisecond+500*sim.Microsecond || fwdAt[0] > 6*sim.Millisecond+500*sim.Microsecond {
		t.Fatalf("forward time %v, want ~5.5ms (2nd copy arrival)", fwdAt)
	}
	if eg.Forwarded() != 1 {
		t.Fatalf("forwarded = %d", eg.Forwarded())
	}
	if eg.PendingGroups() != 0 {
		t.Fatalf("the third copy opened a group: pending = %d", eg.PendingGroups())
	}
}

func TestEgressToleratesOneDeadReplica(t *testing.T) {
	net, loop := testFabric(t, 9, 0)
	delivered := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Only replicas A and B tunnel copies (C is dead).
	tunnel(net, "egress", "A", "g1", 1, "client", "x")
	tunnel(net, "egress", "B", "g1", 1, "client", "x")
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("client got %d packets with one dead replica, want 1", delivered)
	}
	if eg.PendingGroups() != 0 {
		t.Fatalf("the 2-of-3 group outlived its forward: pending = %d", eg.PendingGroups())
	}
}

func TestEgressStuckWithTwoDeadReplicas(t *testing.T) {
	net, loop := testFabric(t, 11, 0)
	delivered := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	tunnel(net, "egress", "A", "g1", 1, "client", "x")
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("packet forwarded with a single copy — median semantics broken")
	}
	if eg.StuckBelowForward() != 1 {
		t.Fatalf("stuck = %d, want 1", eg.StuckBelowForward())
	}
}

func TestEgressOrderIndependentPerSeq(t *testing.T) {
	net, loop := testFabric(t, 13, 0)
	var got []any
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(p *netsim.Packet) { got = append(got, p.Payload) }}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEgress(net, loop, "egress", 3); err != nil {
		t.Fatal(err)
	}
	// Interleave copies of two sequences.
	tunnel(net, "egress", "A", "g1", 1, "client", "s1")
	tunnel(net, "egress", "A", "g1", 2, "client", "s2")
	tunnel(net, "egress", "B", "g1", 2, "client", "s2")
	tunnel(net, "egress", "B", "g1", 1, "client", "s1")
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("client got %d packets", len(got))
	}
}

func TestEgressMedianOfFive(t *testing.T) {
	net, loop := testFabric(t, 15, 0)
	var fwdAt []sim.Time
	delivered := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 5)
	if err != nil {
		t.Fatal(err)
	}
	eg.OnForward = func(g string, seq uint64, at sim.Time) { fwdAt = append(fwdAt, at) }
	for i, rep := range []string{"A", "B", "C", "D", "E"} {
		at := sim.Time(i+1) * sim.Millisecond
		rep := rep
		loop.At(at, "t", func() { tunnel(net, "egress", rep, "g1", 1, "client", "x") })
	}
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	// Median of five = third copy at 3ms (+link latency).
	if len(fwdAt) != 1 || fwdAt[0] < 3*sim.Millisecond || fwdAt[0] > 4*sim.Millisecond {
		t.Fatalf("median-of-5 forward at %v, want ~3.5ms", fwdAt)
	}
}

func TestEgressIgnoresGarbage(t *testing.T) {
	net, loop := testFabric(t, 17, 0)
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	net.Send(&netsim.Packet{Src: "x", Dst: "egress", Size: 10, Kind: "egress:tunnel", Payload: "garbage"})
	if err := eg.SetLiveReplicas("g", 3); err != nil {
		t.Fatal(err)
	}
	net.Send(&netsim.Packet{Src: "x", Dst: eg.GuestAddr("g"), Size: 10, Kind: "egress:tunnel", Payload: "garbage"})
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if eg.Forwarded() != 0 || eg.PendingGroups() != 0 {
		t.Fatal("garbage affected egress state")
	}
}

// TestGuestNodesLiveOnTheServiceShard: a guest's stream source and egress
// node join its service address on its shard, and a guest whose node was
// placed on another shard is refused rather than run on two, by the front
// door too.
func TestGuestNodesLiveOnTheServiceShard(t *testing.T) {
	net, loop := testFabric(t, 31, 0)
	if err := net.SetShards([]*sim.Loop{loop, sim.NewLoop()}); err != nil {
		t.Fatal(err)
	}
	in, err := NewIngress(net, loop, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	dom0 := []netsim.Addr{"h0", "h1", "h2"}
	if err := net.AssignShard(ServiceAddr("a"), 1); err != nil {
		t.Fatal(err)
	}
	if err := in.RegisterGuest("a", dom0); err != nil {
		t.Fatal(err)
	}
	if err := eg.SetLiveReplicas("a", 3); err != nil {
		t.Fatal(err)
	}
	for _, a := range []netsim.Addr{in.SourceAddr("a"), eg.GuestAddr("a")} {
		if k, fixed := net.Endpoint(a).Home(); k != 1 || !fixed {
			t.Errorf("%s on shard %d (fixed %v), want its service address's 1", a, k, fixed)
		}
	}
	for _, a := range []netsim.Addr{in.SourceAddr("b"), eg.GuestAddr("b")} {
		if err := net.AssignShard(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.RegisterGuest("b", dom0); err == nil {
		t.Error("a stream source on another shard than its service address was registered")
	}
	if err := eg.SetLiveReplicas("b", 3); err == nil {
		t.Error("an egress node on another shard than its service address was registered")
	}
	if err := eg.RegisterGuest("b", 3); err == nil {
		t.Error("a guest whose egress node is on another shard was announced")
	}
	// Nor does the front door count b's copies anywhere: they are dropped.
	for _, replica := range []string{"A", "B", "C"} {
		tunnel(net, eg.Addr(), replica, "b", 1, "client", "x")
	}
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := eg.guests["b"]; ok || eg.Forwarded() != 0 || eg.PendingGroups() != 0 {
		t.Errorf("the front door took b's copies: node %v, forwarded %d, pending %d", ok, eg.Forwarded(), eg.PendingGroups())
	}
}

func TestEgressValidation(t *testing.T) {
	net, loop := testFabric(t, 19, 0)
	if _, err := NewEgress(nil, loop, "e", 3); !errors.Is(err, ErrGateway) {
		t.Fatal("nil net should fail")
	}
	if _, err := NewEgress(net, loop, "", 3); !errors.Is(err, ErrGateway) {
		t.Fatal("empty addr should fail")
	}
	if _, err := NewEgress(net, loop, "e", 2); !errors.Is(err, ErrGateway) {
		t.Fatal("even replicas should fail")
	}
	if _, err := NewEgress(net, loop, "e", 0); !errors.Is(err, ErrGateway) {
		t.Fatal("zero replicas should fail")
	}
}

// TestEgressSingleSurvivorForwardsSoleCopy: the per-guest live view. A
// guest degraded to one live replica must have its output forwarded at the
// sole copy instead of waiting forever for a second emission.
func TestEgressSingleSurvivorForwardsSoleCopy(t *testing.T) {
	net, loop := testFabric(t, 21, 0)
	delivered := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eg.SetLiveReplicas("g1", 1); err != nil {
		t.Fatal(err)
	}
	tunnel(net, "egress", "A", "g1", 1, "client", "x")
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("single survivor's copy not forwarded (delivered=%d)", delivered)
	}
	if eg.PendingGroups() != 0 {
		t.Fatalf("the sole-survivor group outlived its forward: pending = %d", eg.PendingGroups())
	}
}

// TestEgressViewShrinkFlushesEligibleGroups: copies counted under the full
// group must still forward when a view shrink makes them eligible — the
// counted copies may all be from now-dead replicas, so no further emission
// will ever re-trigger the check.
func TestEgressViewShrinkFlushesEligibleGroups(t *testing.T) {
	net, loop := testFabric(t, 27, 0)
	delivered := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	// One copy arrives under the full group (forwardOn 2): absorbed.
	tunnel(net, "egress", "A", "g1", 1, "client", "x")
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("forwarded below the median copy")
	}
	// The group degrades to a single survivor: the already-counted copy is
	// now the whole group and must flush.
	if err := eg.SetLiveReplicas("g1", 1); err != nil {
		t.Fatal(err)
	}
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("view shrink did not flush the eligible group (delivered=%d)", delivered)
	}
	if eg.PendingGroups() != 0 {
		t.Fatalf("the flushed group was not retired: pending = %d", eg.PendingGroups())
	}
}

// TestEgressLivePairForwardsOnSecondAndToleratesStraggler: a degraded pair
// forwards at the later of its two emissions (the upper-median bias) and
// the group ends there; the dead replica's in-flight straggler copy is
// absorbed instead of resurrecting a phantom stuck entry.
func TestEgressLivePairForwardsOnSecondAndToleratesStraggler(t *testing.T) {
	net, loop := testFabric(t, 23, 0)
	delivered := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eg.SetLiveReplicas("g1", 2); err != nil {
		t.Fatal(err)
	}
	tunnel(net, "egress", "A", "g1", 1, "client", "x")
	tunnel(net, "egress", "B", "g1", 1, "client", "x")
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered=%d, want forward on second copy", delivered)
	}
	// The dead replica's copy — tunnelled just before its VMM died — lands
	// late: absorbed, never re-forwarded, never stuck.
	tunnel(net, "egress", "C", "g1", 1, "client", "x")
	if err := loop.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("straggler re-forwarded (delivered=%d)", delivered)
	}
	if eg.PendingGroups() != 0 || eg.StuckBelowForward() != 0 {
		t.Fatalf("straggler left pending=%d stuck=%d", eg.PendingGroups(), eg.StuckBelowForward())
	}
	// Restoring the full group clears the override: the next sequence
	// needs two of three copies again.
	if err := eg.SetLiveReplicas("g1", 3); err != nil {
		t.Fatal(err)
	}
	tunnel(net, "egress", "A", "g1", 2, "client", "y")
	if err := loop.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("restored group forwarded on first copy (delivered=%d)", delivered)
	}
	if eg.StuckBelowForward() != 1 {
		t.Fatalf("stuck=%d, want the half-arrived seq 2", eg.StuckBelowForward())
	}
}

// TestEgressSetLiveReplicasValidation pins the bounds, each guest's own,
// and the DropGuest cleanup.
func TestEgressSetLiveReplicasValidation(t *testing.T) {
	net, loop := testFabric(t, 25, 0)
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eg.SetLiveReplicas("g", 0); !errors.Is(err, ErrGateway) {
		t.Fatal("live count 0 accepted")
	}
	if err := eg.SetLiveReplicas("g", 4); !errors.Is(err, ErrGateway) {
		t.Fatal("live count beyond the group accepted")
	}
	if err := eg.SetLiveReplicas("g", 1); err != nil {
		t.Fatal(err)
	}
	// A guest announced with a group of five is bounded by five, not by the
	// front door's three; a group of four is no group.
	if err := eg.RegisterGuest("g5", 5); err != nil {
		t.Fatal(err)
	}
	if err := eg.SetLiveReplicas("g5", 4); err != nil {
		t.Fatal(err)
	}
	if err := eg.SetLiveReplicas("g5", 6); !errors.Is(err, ErrGateway) {
		t.Fatal("live count beyond the guest's group of five accepted")
	}
	if err := eg.RegisterGuest("g4", 4); !errors.Is(err, ErrGateway) {
		t.Fatal("an even group accepted")
	}
	eg.DropGuest("g")
	// A later tenant reusing the id starts from the full group again.
	tunnel(net, "egress", "A", "g", 1, "client", "x")
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if eg.Forwarded() != 0 {
		t.Fatal("stale live view survived DropGuest")
	}
}

// TestEgressAbsorbsSequenceBeyondAnyWindow: the output sequence of a tunnel
// copy is a number from a packet and must never size the copy-group ring.
// One no guest can be far enough ahead to have sent is absorbed like a
// straggler, and the guest's real output goes on.
func TestEgressAbsorbsSequenceBeyondAnyWindow(t *testing.T) {
	net, loop := testFabric(t, 19, 0)
	got := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { got++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Base is 1 when these arrive: once sequence 1 was forwarded,
	// 1+MaxSpan would be inside the span.
	tunnel(net, "egress", "A", "g1", 1<<62, "client", "forged")
	tunnel(net, "egress", "A", "g1", 1+seqwin.MaxSpan, "client", "forged")
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, replica := range []string{"A", "B", "C"} {
		tunnel(net, "egress", replica, "g1", 1, "client", "resp")
	}
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 || eg.Forwarded() != 1 || eg.PendingGroups() != 0 || eg.StuckBelowForward() != 0 {
		t.Fatalf("client got %d, forwarded %d, pending %d, stuck %d; want 1, 1, 0, 0",
			got, eg.Forwarded(), eg.PendingGroups(), eg.StuckBelowForward())
	}
}

// TestEgressTombstoneAbsorbsCopiesOfADepartedGuest: a copy still in the
// tunnel when DropGuest runs must not bring the guest back — it would open
// a group that nothing ever closes (ROADMAP hole d). The tombstone absorbs
// it, a redeploy of the id clears the tombstone and starts at a clean
// window, and a tombstone nobody cleared is gone once it has lapsed, after
// which the id is as good as never seen: first-copy creation stands.
func TestEgressTombstoneAbsorbsCopiesOfADepartedGuest(t *testing.T) {
	net, loop := testFabric(t, 23, 0)
	got := 0
	if err := net.Attach(&netsim.FuncNode{Addr: "client", Fn: func(*netsim.Packet) { got++ }}); err != nil {
		t.Fatal(err)
	}
	eg, err := NewEgress(net, loop, "egress", 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(d sim.Time) {
		t.Helper()
		if err := loop.RunUntil(loop.Now() + d); err != nil {
			t.Fatal(err)
		}
	}
	state := func(when string, wantGot int, wantForwarded uint64, wantPending int) {
		t.Helper()
		if got != wantGot || eg.Forwarded() != wantForwarded || eg.PendingGroups() != wantPending {
			t.Fatalf("%s: client got %d, forwarded %d, pending %d; want %d, %d, %d",
				when, got, eg.Forwarded(), eg.PendingGroups(), wantGot, wantForwarded, wantPending)
		}
	}

	// Output 7 of g1 has one copy at the egress and one in the tunnel when
	// the guest is evicted; a third leaves a replica that had not stopped yet.
	tunnel(net, "egress", "A", "g1", 7, "client", "old")
	run(sim.Millisecond)
	tunnel(net, "egress", "B", "g1", 7, "client", "old")
	eg.DropGuest("g1")
	tunnel(net, "egress", "C", "g1", 7, "client", "old")
	run(5 * sim.Millisecond)
	state("copies after DropGuest", 0, 0, 0)

	// The id is deployed again inside the tombstone's life: the new tenant's
	// output starts at sequence 1 and forwards on its second copy.
	if err := eg.RegisterGuest("g1", 3); err != nil {
		t.Fatal(err)
	}
	tunnel(net, "egress", "A", "g1", 1, "client", "new")
	tunnel(net, "egress", "B", "g1", 1, "client", "new")
	run(5 * sim.Millisecond)
	state("redeployed id", 1, 1, 0)

	// Two departures, neither redeployed: both tombstones stand for
	// departedFor, each on its guest's node.
	eg.DropGuest("g1")
	eg.DropGuest("g2")
	if eg.guests["g1"].gone == 0 || eg.guests["g2"].gone == 0 {
		t.Fatal("a dropped guest's node holds no tombstone")
	}
	// A front-door copy takes two 0.5 ms hops to its guest's node.
	run(departedFor - 2*sim.Millisecond)
	tunnel(net, "egress", "A", "g2", 3, "client", "late")
	run(2 * sim.Millisecond)
	state("copy inside the tombstone's life", 1, 1, 0)
	// A lapsed tombstone is no tombstone: g2 is created by its first copy.
	tunnel(net, "egress", "A", "g2", 1, "client", "again")
	run(sim.Millisecond)
	state("first copy of a lapsed id", 1, 1, 1)
}
