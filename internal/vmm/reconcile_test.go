package vmm

import (
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Tests for the survivor exchange (ReconcileSurvivors): the split-delivery
// repair the view change depends on. The scenario throughout is the one the
// exchange exists for — machine C's VMM crashed mid-flight and the lossy
// fabric delivered C's last proposal to survivor B but not survivor A.

// reconcileTestDevice builds a standalone device named `name` with its own
// loop, so a test can hold distinct survivors.
func reconcileTestDevice(t *testing.T, name string, seed uint64) (*sim.Loop, *Runtime, *NetDevice) {
	t.Helper()
	loop := sim.NewLoop()
	src := sim.NewSource(seed)
	h := testHost(t, name, loop, src, 0, 0)
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
	return loop, rt, nd
}

// TestReconcileRepairsSplitDelivery is the exchange's reason to exist, as a
// table over the ways the crash can split seq 1 between survivors A and B.
// Both journal into one journal, as the cluster wires them. After one
// exchange A and B must have delivered seq 1 at the same virtual time — the
// 3-median over A's, B's and the dead origin C's votes — and a second
// exchange must repair nothing.
func TestReconcileRepairsSplitDelivery(t *testing.T) {
	vB := vtime.Virtual(30 * sim.Millisecond)
	vC := vtime.Virtual(31 * sim.Millisecond)
	cases := []struct {
		name string
		// C's vote always reaches B; cAtA: it reached A too. aAtB: A's vote
		// reached B. A always holds B's vote, so the one survivor with all
		// three votes resolves before the exchange.
		cAtA, aAtB bool
		repairs    int
	}{
		// Nobody resolved: the merged dead vote completes A's median, and B
		// adopts A's decision from the journal in the same exchange.
		{name: "dead vote replay, exact median", repairs: 2},
		// B resolved; A adopts B's journaled decision.
		{name: "resolution adopted verbatim", aAtB: true, repairs: 1},
		// A resolved; B, still holding C's vote, adopts A's decision.
		{name: "dead vote held where the peer resolved", cAtA: true, repairs: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := NewJournal()
			loopA, rtA, ndA := reconcileTestDevice(t, "A", 81)
			loopB, rtB, ndB := reconcileTestDevice(t, "B", 83)
			ndA.OnResolve, ndB.OnResolve = j, j
			var deliveredA, deliveredB []vtime.Virtual
			rtA.OnNetDeliver = func(_ uint64, v vtime.Virtual, _ sim.Time) { deliveredA = append(deliveredA, v) }
			rtB.OnNetDeliver = func(_ uint64, v vtime.Virtual, _ sim.Time) { deliveredB = append(deliveredB, v) }
			var ownA, ownB vtime.Virtual
			ndA.SendProposal = ProposalSinkFunc(func(_, _ uint64, v vtime.Virtual) { ownA = v })
			ndB.SendProposal = ProposalSinkFunc(func(_, _ uint64, v vtime.Virtual) { ownB = v })
			rtA.Start()
			rtB.Start()

			loopA.At(10*sim.Millisecond, "pktA", func() { ndA.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
			loopA.At(15*sim.Millisecond, "peerB@A", func() { ndA.HandlePeerProposal("B", 0, 1, vB) })
			if tc.cAtA {
				loopA.At(16*sim.Millisecond, "peerC@A", func() { ndA.HandlePeerProposal("C", 0, 1, vC) })
			}
			if err := loopA.RunUntil(50 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			loopB.At(10*sim.Millisecond, "pktB", func() { ndB.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
			loopB.At(14*sim.Millisecond, "peerC@B", func() { ndB.HandlePeerProposal("C", 0, 1, vC) })
			if tc.aAtB {
				loopB.At(15*sim.Millisecond, "peerA@B", func() { ndB.HandlePeerProposal("A", 0, 1, ownA) })
			}
			if err := loopB.RunUntil(50 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if a, b := ndA.Resolved() == 1, ndB.Resolved() == 1; a != tc.cAtA || b != tc.aAtB {
				t.Fatalf("before the exchange A resolved=%v, B resolved=%v; want %v, %v", a, b, tc.cAtA, tc.aAtB)
			}

			survivors := []*NetDevice{ndA, ndB}
			if got := ReconcileSurvivors(survivors, "C", j); got != tc.repairs {
				t.Fatalf("exchange repaired %d, want %d", got, tc.repairs)
			}
			if got := ReconcileSurvivors(survivors, "C", j); got != 0 {
				t.Fatalf("repeated exchange repaired %d, want 0", got)
			}

			want := GroupMedian([]vtime.Virtual{ownA, vB, vC})
			if tc.aAtB {
				want = GroupMedian([]vtime.Virtual{ownA, ownB, vC})
			}
			if err := loopA.RunUntil(120 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if err := loopB.RunUntil(120 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			for _, nd := range survivors {
				if nd.Pending() != 0 || nd.Resolved() != 1 {
					t.Fatalf("%s: pending=%d resolved=%d, want 0 and 1", nd.self, nd.Pending(), nd.Resolved())
				}
			}
			if len(deliveredA) != 1 || deliveredA[0] != want || len(deliveredB) != 1 || deliveredB[0] != want {
				t.Fatalf("A delivered %v and B %v, want [%v] at both", deliveredA, deliveredB, want)
			}
		})
	}
}

// TestDeadVMMFinishesNothing: a packet already in Dom0 when its host fails
// is dropped when the processing delay ends, though the device holds both
// peer votes. Before, the dead VMM proposed, resolved the median and
// journaled a decision after its machine had failed; that decision could
// win the journal's first-write race against the one the survivors later
// made, and a replacement replayed a time no survivor used.
func TestDeadVMMFinishesNothing(t *testing.T) {
	loop, rt, nd := reconcileTestDevice(t, "A", 89)
	rt.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) {}
	resolves := 0
	nd.OnResolve = ResolveSinkFunc(func(uint64, vtime.Virtual, guest.Payload) { resolves++ })
	rt.SetView(1, []string{"A", "B", "C"})
	rt.Start()
	loop.At(10*sim.Millisecond, "pkt+crash", func() {
		nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64})
		nd.HandlePeerProposal("B", 1, 1, vtime.Virtual(30*sim.Millisecond))
		nd.HandlePeerProposal("C", 1, 1, vtime.Virtual(31*sim.Millisecond))
		rt.Host().Fail()
		rt.Stop()
	})
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if nd.Resolved() != 0 || resolves != 0 {
		t.Fatalf("dead VMM resolved %d and journaled %d decisions, want 0", nd.Resolved(), resolves)
	}
}
