package vmm

import (
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// TestPolicyOwnDeliversAtOwnProposal verifies the leader-dictates ablation
// policy: the device model resolves immediately at its own proposal,
// without waiting for peers.
func TestPolicyOwnDeliversAtOwnProposal(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(42)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	nd, err := NewNetDevice(rt, 3)
	if err != nil {
		t.Fatal(err)
	}
	nd.Policy = PolicyOwn
	var deliveredAt, proposed []vtime.Virtual
	nd.SendProposal = ProposalSinkFunc(func(view, seq uint64, v vtime.Virtual) { proposed = append(proposed, v) })
	rt.OnNetDeliver = func(seq uint64, v vtime.Virtual, _ sim.Time) { deliveredAt = append(deliveredAt, v) }
	rt.Start()
	loop.At(20*sim.Millisecond, "pkt", func() {
		nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64})
	})
	if err := loop.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(deliveredAt) != 1 || len(proposed) != 1 {
		t.Fatalf("delivered %d proposed %d", len(deliveredAt), len(proposed))
	}
	// Delivery time equals the local proposal — no peers consulted, though
	// the proposal is still sent (the ablation changes only the decision).
	if deliveredAt[0] != proposed[0] {
		t.Fatalf("delivered at %v, own proposal %v", deliveredAt[0], proposed[0])
	}
	if nd.Resolved() != 1 || nd.Pending() != 0 {
		t.Fatalf("resolved=%d pending=%d", nd.Resolved(), nd.Pending())
	}
}

// TestPolicyMedianWaitsForAllProposals pins the default policy's liveness
// condition: no delivery until all replica proposals are in.
func TestPolicyMedianWaitsForAllProposals(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(43)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	nd, err := NewNetDevice(rt, 3)
	if err != nil {
		t.Fatal(err)
	}
	nd.SendProposal = ProposalSinkFunc(func(view, seq uint64, v vtime.Virtual) {})
	delivered := 0
	rt.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) { delivered++ }
	rt.Start()
	loop.At(10*sim.Millisecond, "pkt", func() { nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
	// Only one peer proposal arrives — median of 3 cannot resolve.
	loop.At(15*sim.Millisecond, "peer1", func() { nd.HandlePeerProposal("B", 0, 1, vtime.Virtual(30*sim.Millisecond)) })
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 || nd.Pending() != 1 {
		t.Fatalf("delivered=%d pending=%d before full proposal set", delivered, nd.Pending())
	}
	// The last proposal arrives: delivery proceeds.
	loop.At(110*sim.Millisecond, "peer2", func() { nd.HandlePeerProposal("C", 0, 1, vtime.Virtual(120*sim.Millisecond)) })
	if err := loop.RunUntil(300 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered=%d after full proposal set", delivered)
	}
}

// TestProposalBeforePayload covers the ordering race: peer proposals can
// arrive before the ingress data reaches this host.
func TestProposalBeforePayload(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(44)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	nd, err := NewNetDevice(rt, 3)
	if err != nil {
		t.Fatal(err)
	}
	nd.SendProposal = ProposalSinkFunc(func(view, seq uint64, v vtime.Virtual) {})
	delivered := 0
	rt.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) { delivered++ }
	rt.Start()
	// Peers propose first; local data arrives later.
	loop.At(5*sim.Millisecond, "peer1", func() { nd.HandlePeerProposal("B", 0, 1, vtime.Virtual(40*sim.Millisecond)) })
	loop.At(6*sim.Millisecond, "peer2", func() { nd.HandlePeerProposal("C", 0, 1, vtime.Virtual(45*sim.Millisecond)) })
	loop.At(20*sim.Millisecond, "pkt", func() { nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
	if err := loop.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered=%d with out-of-order proposal arrival", delivered)
	}
}
