package vmm

import (
	"slices"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Regression tests for the NetDevice group protocol: the resolved-seq
// watermark (late stragglers must not resurrect a propState and wedge
// quiescence), per-origin proposal dedupe (a duplicated proposal must not
// displace another peer's), and the group view (2-of-3 resolution after a
// VMM death, with deterministic re-proposal).

func groupTestDevice(t *testing.T, seed uint64) (*sim.Loop, *Runtime, *NetDevice) {
	t.Helper()
	return reconcileTestDevice(t, "A", seed)
}

// TestLateProposalAfterResolveIsDropped is the quiescence-leak regression:
// a straggler proposal arriving after maybeResolve has retired the seq used
// to re-create an unresolvable propState, pinning Pending() above zero
// forever and wedging every later replacement barrier for the guest.
func TestLateProposalAfterResolveIsDropped(t *testing.T) {
	loop, rt, nd := groupTestDevice(t, 71)
	delivered := 0
	rt.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) { delivered++ }
	rt.Start()
	loop.At(10*sim.Millisecond, "pkt", func() { nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
	loop.At(15*sim.Millisecond, "peerB", func() { nd.HandlePeerProposal("B", 0, 1, vtime.Virtual(30*sim.Millisecond)) })
	loop.At(16*sim.Millisecond, "peerC", func() { nd.HandlePeerProposal("C", 0, 1, vtime.Virtual(31*sim.Millisecond)) })
	// The straggle: a duplicate retransmission of C's proposal lands long
	// after the seq resolved.
	loop.At(80*sim.Millisecond, "straggler", func() { nd.HandlePeerProposal("C", 0, 1, vtime.Virtual(31*sim.Millisecond)) })
	if err := loop.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 || nd.Resolved() != 1 {
		t.Fatalf("delivered=%d resolved=%d", delivered, nd.Resolved())
	}
	if nd.Pending() != 0 {
		t.Fatalf("straggler resurrected a propState: Pending()=%d", nd.Pending())
	}
	if nd.StaleDrops() != 1 {
		t.Fatalf("stale drops = %d, want 1", nd.StaleDrops())
	}
}

// TestDuplicatePeerProposalDoesNotSkewMedian pins per-origin dedupe: before
// the fix, a peer's replayed proposal displaced the missing third proposal
// and the median resolved early over a skewed sample.
func TestDuplicatePeerProposalDoesNotSkewMedian(t *testing.T) {
	loop, rt, nd := groupTestDevice(t, 73)
	var deliveredAt []vtime.Virtual
	rt.OnNetDeliver = func(_ uint64, v vtime.Virtual, _ sim.Time) { deliveredAt = append(deliveredAt, v) }
	var own vtime.Virtual
	nd.SendProposal = ProposalSinkFunc(func(_, _ uint64, v vtime.Virtual) { own = v })
	rt.Start()
	vB := vtime.Virtual(200 * sim.Millisecond)
	vC := vtime.Virtual(90 * sim.Millisecond)
	loop.At(10*sim.Millisecond, "pkt", func() { nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
	loop.At(15*sim.Millisecond, "peerB", func() { nd.HandlePeerProposal("B", 0, 1, vB) })
	loop.At(16*sim.Millisecond, "peerB-dup", func() { nd.HandlePeerProposal("B", 0, 1, vB) })
	loop.At(40*sim.Millisecond, "check", func() {
		if len(deliveredAt) != 0 {
			t.Errorf("resolved on a duplicated proposal: %v", deliveredAt)
		}
	})
	loop.At(50*sim.Millisecond, "peerC", func() { nd.HandlePeerProposal("C", 0, 1, vC) })
	if err := loop.RunUntil(400 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if nd.DuplicateDrops() != 1 {
		t.Fatalf("duplicate drops = %d, want 1", nd.DuplicateDrops())
	}
	if len(deliveredAt) != 1 {
		t.Fatalf("delivered %d packets", len(deliveredAt))
	}
	want := GroupMedian([]vtime.Virtual{own, vB, vC})
	if deliveredAt[0] != want {
		t.Fatalf("delivered at %v, want true 3-way median %v (own=%v)", deliveredAt[0], want, own)
	}
}

// TestSetViewResolvesTwoOfThree exercises the degraded regime: a seq stalls
// because peer C's VMM died before proposing; installing the live view
// re-proposes among the live pair under the new view number and resolves on
// their upper median, while C's straggling old-view proposal is discarded.
func TestSetViewResolvesTwoOfThree(t *testing.T) {
	loop, rt, nd := groupTestDevice(t, 75)
	var deliveredAt []vtime.Virtual
	rt.OnNetDeliver = func(_ uint64, v vtime.Virtual, _ sim.Time) { deliveredAt = append(deliveredAt, v) }
	var reProposed []vtime.Virtual
	nd.SendProposal = ProposalSinkFunc(func(view, seq uint64, v vtime.Virtual) {
		if view == 1 {
			reProposed = append(reProposed, v)
		}
	})
	rt.Start()
	loop.At(10*sim.Millisecond, "pkt", func() { nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
	loop.At(15*sim.Millisecond, "peerB", func() { nd.HandlePeerProposal("B", 0, 1, vtime.Virtual(30*sim.Millisecond)) })
	// C is dead; the group is reconfigured onto {A, B} at view 1.
	vB2 := vtime.Virtual(500 * sim.Millisecond)
	loop.At(60*sim.Millisecond, "mark", func() {
		if nd.Pending() != 1 {
			t.Errorf("seq should be stalled pre-reconfig, Pending()=%d", nd.Pending())
		}
		rt.SetView(1, []string{"A", "B"})
		if len(reProposed) != 1 {
			t.Errorf("pending seq not re-proposed under the new view: %v", reProposed)
		}
		// C's straggling view-0 proposal lands between the reconfiguration
		// and B's round-2 proposal: it must be dropped, not counted.
		nd.HandlePeerProposal("C", 0, 1, vtime.Virtual(31*sim.Millisecond))
		// B's own re-proposal for the stalled seq arrives under view 1.
		loop.After(sim.Millisecond, "peerB2", func() { nd.HandlePeerProposal("B", 1, 1, vB2) })
	})
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(deliveredAt) != 1 {
		t.Fatalf("degraded pair never resolved: delivered=%d pending=%d", len(deliveredAt), nd.Pending())
	}
	// Upper median of {own re-proposal, vB2}: vB2 is far later, so it wins.
	if deliveredAt[0] != vB2 {
		t.Fatalf("delivered at %v, want upper median %v", deliveredAt[0], vB2)
	}
	if nd.Pending() != 0 {
		t.Fatalf("Pending()=%d after live-set resolution", nd.Pending())
	}
	if nd.ViewDrops() == 0 {
		t.Fatal("stale-view straggler was not dropped")
	}
}

// TestGroupMedianTieRule pins the deterministic tie-rule: odd counts take
// the true median, even (degraded) counts the upper median.
func TestGroupMedianTieRule(t *testing.T) {
	if m := GroupMedian([]vtime.Virtual{30, 10, 20}); m != 20 {
		t.Fatalf("median of 3 = %v", m)
	}
	if m := GroupMedian([]vtime.Virtual{40, 10}); m != 40 {
		t.Fatalf("upper median of 2 = %v, want 40", m)
	}
	if m := GroupMedian([]vtime.Virtual{7}); m != 7 {
		t.Fatalf("median of 1 = %v", m)
	}
}

// TestPrimeResolvedDiscardsHistory: a replacement replica joining an
// in-progress stream must treat the stream's history as handled, both for
// already-pending states and future stragglers.
func TestPrimeResolvedDiscardsHistory(t *testing.T) {
	loop, rt, nd := groupTestDevice(t, 79)
	rt.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) {}
	rt.Start()
	loop.At(5*sim.Millisecond, "old", func() { nd.HandlePeerProposal("B", 0, 3, vtime.Virtual(30*sim.Millisecond)) })
	loop.At(10*sim.Millisecond, "prime", func() {
		if nd.Pending() != 1 {
			t.Errorf("pre-prime pending = %d", nd.Pending())
		}
		nd.PrimeResolved(7)
		if nd.Pending() != 0 {
			t.Errorf("PrimeResolved left pending = %d", nd.Pending())
		}
	})
	loop.At(20*sim.Millisecond, "straggler", func() { nd.HandlePeerProposal("C", 0, 5, vtime.Virtual(31*sim.Millisecond)) })
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if nd.Pending() != 0 {
		t.Fatalf("historic straggler resurrected state: Pending()=%d", nd.Pending())
	}
	if nd.StaleDrops() == 0 {
		t.Fatal("historic straggler was not counted as stale")
	}
}

// TestOverdueNamesSilentOrigins: the detector read-out. With a view
// installed, an origin is overdue exactly when its proposal is missing for a
// pending sequence this replica proposed at or before the cutoff; a view
// change re-proposes, restarting that clock. Self, non-members, sequences
// only a peer has proposed, resolved sequences and devices without a view
// name nothing.
func TestOverdueNamesSilentOrigins(t *testing.T) {
	loop, rt, nd := groupTestDevice(t, 91)
	run := func(until sim.Time) {
		t.Helper()
		if err := loop.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}
	overdue := func(cutoff sim.Time) (out []string) {
		for _, o := range []string{"A", "B", "C", "D"} {
			if nd.Overdue(o, cutoff) {
				out = append(out, o)
			}
		}
		return out
	}
	// No view yet: membership names are unknown to the device.
	nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64})
	run(5 * sim.Millisecond)
	if got := overdue(sim.Never); got != nil {
		t.Fatalf("no view installed, but overdue %v", got)
	}
	// Installing the view re-proposes sequence 1 at 5 ms.
	rt.SetView(1, []string{"A", "B", "C"})
	if got := overdue(5*sim.Millisecond - 1); got != nil {
		t.Fatalf("overdue %v before the proposal", got)
	}
	if got := overdue(5 * sim.Millisecond); !slices.Equal(got, []string{"B", "C"}) {
		t.Fatalf("overdue %v, want [B C]", got)
	}
	nd.HandlePeerProposal("B", 1, 1, vtime.Virtual(30*sim.Millisecond))
	nd.HandlePeerProposal("B", 1, 7, vtime.Virtual(40*sim.Millisecond)) // 7: only a peer proposed
	if got := overdue(sim.Never); !slices.Equal(got, []string{"C"}) {
		t.Fatalf("overdue %v after B, want [C]", got)
	}
	// B leaves the view at 8 ms: sequence 1 is proposed afresh.
	run(8 * sim.Millisecond)
	rt.SetView(2, []string{"A", "C"})
	if got := overdue(8*sim.Millisecond - 1); got != nil {
		t.Fatalf("overdue %v against the previous view's proposal", got)
	}
	if got := overdue(8 * sim.Millisecond); !slices.Equal(got, []string{"C"}) {
		t.Fatalf("overdue %v in view 2, want [C]", got)
	}
	nd.HandlePeerProposal("C", 2, 1, vtime.Virtual(31*sim.Millisecond))
	run(10 * sim.Millisecond)
	if nd.Resolved() != 1 {
		t.Fatalf("resolved=%d", nd.Resolved())
	}
	if got := overdue(sim.Never); got != nil {
		t.Fatalf("resolved sequence still names %v", got)
	}
}

// TestProposalBeyondAnyWindowIsStale: an ingress sequence is a number from a
// packet. One further above the resolved watermark than any ingress can run
// is counted as a stale drop — whether it arrives as a peer's proposal or as
// a payload — and opens nothing, so Pending() cannot wedge a barrier on it.
func TestProposalBeyondAnyWindowIsStale(t *testing.T) {
	loop, rt, nd := groupTestDevice(t, 79)
	delivered := 0
	rt.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) { delivered++ }
	rt.Start()
	loop.At(5*sim.Millisecond, "forged", func() {
		nd.HandlePeerProposal("B", 0, 1<<62, vtime.Virtual(30*sim.Millisecond))
		nd.HandlePeerProposal("B", 0, 1+seqwin.MaxSpan, vtime.Virtual(30*sim.Millisecond))
		nd.HandleInbound(1<<62, guest.Payload{Src: "c", Size: 64})
	})
	loop.At(10*sim.Millisecond, "pkt", func() { nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
	loop.At(15*sim.Millisecond, "peerB", func() { nd.HandlePeerProposal("B", 0, 1, vtime.Virtual(30*sim.Millisecond)) })
	loop.At(16*sim.Millisecond, "peerC", func() { nd.HandlePeerProposal("C", 0, 1, vtime.Virtual(31*sim.Millisecond)) })
	if err := loop.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if nd.StaleDrops() != 3 || nd.Pending() != 0 {
		t.Fatalf("stale drops %d, pending %d; want 3, 0", nd.StaleDrops(), nd.Pending())
	}
	if delivered != 1 || nd.Resolved() != 1 {
		t.Fatalf("delivered=%d resolved=%d after the forged sequences", delivered, nd.Resolved())
	}
}

// TestResolveCycleAllocatesNothing guards the per-packet path of the device
// model: payload in → own proposal → two peer votes → median → delivery
// queued. Proposal states live inline in the pending window and a slot's
// vote array is made once, so after one lap of the ring nothing allocates.
// (A vote array per sequence measured +10 % allocations per simulated second
// on the 1000-machine cloud.)
func TestResolveCycleAllocatesNothing(t *testing.T) {
	loop, rt, nd := groupTestDevice(t, 73)
	var own vtime.Virtual
	nd.SendProposal = ProposalSinkFunc(func(_, _ uint64, v vtime.Virtual) { own = v })
	resolved := 0
	nd.OnResolve = ResolveSinkFunc(func(uint64, vtime.Virtual, guest.Payload) { resolved++ })
	// The runtime is not started: the loop holds only the device's own
	// timer, and the queue of resolved deliveries only grows — give it room.
	rt.pendingNet = make([]netDelivery, 0, 4096)
	seq := uint64(0)
	cycle := func() {
		seq++
		nd.HandleInbound(seq, guest.Payload{Src: "c", Size: 200})
		loop.ProcessNextEvent()
		nd.HandlePeerProposal("B", nd.View(), seq, own-1000)
		nd.HandlePeerProposal("C", nd.View(), seq, own+1000)
	}
	for range 16 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a resolve cycle allocates %v times", allocs)
	}
	if resolved != int(seq) || nd.Pending() != 0 {
		t.Fatalf("resolved %d of %d, pending %d", resolved, seq, nd.Pending())
	}
}

// TestFreshDeviceFirstSequencesBudget: a fresh 3-replica device's first 8
// resolved sequences — payload in, own proposal, two peer votes, median,
// delivery queued — cost 7 allocations, against 15 before each per-replica
// buffer started at the size its group fixes: the slots' vote arrays come
// from one carve, and the median scratch, the work-item freelist and the
// delivery queue are sized at their first use.
func TestFreshDeviceFirstSequencesBudget(t *testing.T) {
	const doublingAllocs = 15
	type device struct {
		loop *sim.Loop
		nd   *NetDevice
		own  vtime.Virtual
	}
	devs := make([]device, 2) // AllocsPerRun's warm-up run, then the measured one
	for i := range devs {
		d := &devs[i]
		d.loop, _, d.nd = groupTestDevice(t, 81)
		d.nd.SendProposal = ProposalSinkFunc(func(_, _ uint64, v vtime.Virtual) { d.own = v })
		d.loop.After(0, "warm-up", func() {}) // the loop's own first event is not the device's
		d.loop.ProcessNextEvent()
	}
	i := 0
	allocs := testing.AllocsPerRun(1, func() {
		d := &devs[i]
		i++
		for seq := uint64(1); seq <= 8; seq++ {
			d.nd.HandleInbound(seq, guest.Payload{Src: "c", Size: 200})
			d.loop.ProcessNextEvent()
			d.nd.HandlePeerProposal("B", d.nd.View(), seq, d.own-1000)
			d.nd.HandlePeerProposal("C", d.nd.View(), seq, d.own+1000)
		}
	})
	for _, d := range devs {
		if d.nd.Resolved() != 8 || d.nd.Pending() != 0 {
			t.Fatalf("resolved %d of 8, pending %d", d.nd.Resolved(), d.nd.Pending())
		}
	}
	if allocs > doublingAllocs/2 {
		t.Fatalf("the first 8 sequences cost %v allocations, want at most %d", allocs, doublingAllocs/2)
	}
}

// TestVotePastTheGroupLeavesTheNextSlot: the slots' vote arrays are carved
// side by side from one allocation, capped at the group's width, so a vote
// past it (an origin counted before any view is installed) reallocates its
// own slot and never writes into the next one's votes.
func TestVotePastTheGroupLeavesTheNextSlot(t *testing.T) {
	_, _, nd := groupTestDevice(t, 83)
	a, b := nd.state(1), nd.state(2)
	for k, origin := range []string{"A", "B", "C"} {
		a.props = append(a.props, propVote{origin, vtime.Virtual(10 + k)})
		b.props = append(b.props, propVote{origin, vtime.Virtual(20 + k)})
	}
	a.props = append(a.props, propVote{"D", 13})
	want := []propVote{{"A", 20}, {"B", 21}, {"C", 22}}
	if !slices.Equal(b.props, want) {
		t.Fatalf("slot 2's votes %v after a fourth vote in slot 1, want %v", b.props, want)
	}
	if v, ok := a.vote("D"); !ok || v != 13 || len(a.props) != 4 {
		t.Fatalf("slot 1 holds %v", a.props)
	}
}
