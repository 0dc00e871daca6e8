package vmm

import (
	"encoding/binary"
	"strings"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Tests for the pre-view-commit reconcile protocol (ExportReconcile /
// ImportReconcile): the split-delivery repair the view change depends on.
// The scenario throughout is the one the protocol exists for — machine C's
// VMM crashed mid-flight and the lossy fabric delivered C's last proposal
// to survivor B but not survivor A.

// reconcileTestDevice builds a standalone device named `name` with its own
// loop, mirroring groupTestDevice but with the host name parameterized so a
// test can hold two distinct survivors.
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

// TestReconcileRepairsSplitDelivery is the protocol's reason to exist, as a
// table over its three repair paths. In every case the dead origin C's
// information reached survivor B only; a reconcile export from B must leave
// survivor A delivering the exact value it would have reached had the
// fabric not dropped C's packet — and a second, duplicated import must
// repair nothing further.
func TestReconcileRepairsSplitDelivery(t *testing.T) {
	vB := vtime.Virtual(30 * sim.Millisecond)
	vC := vtime.Virtual(31 * sim.Millisecond)
	cases := []struct {
		name string
		// withPayload: seq 1's payload reached A before the reconcile round
		// (false exercises the forced-adoption stash).
		withPayload bool
		// resolvedAtB: B resolved seq 1 (C's vote completed its median), so
		// the export repairs A through Resolutions; otherwise B is pending
		// too and the export replays C's vote through DeadVotes.
		resolvedAtB bool
	}{
		{name: "dead vote replay, exact median", withPayload: true, resolvedAtB: false},
		{name: "resolution adopted verbatim", withPayload: true, resolvedAtB: true},
		{name: "resolution forced, delivered on payload arrival", withPayload: false, resolvedAtB: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loopA, rtA, ndA := reconcileTestDevice(t, "A", 81)
			loopB, rtB, ndB := reconcileTestDevice(t, "B", 83)
			var deliveredA []vtime.Virtual
			rtA.OnNetDeliver = func(_ uint64, v vtime.Virtual, _ sim.Time) { deliveredA = append(deliveredA, v) }
			var ownA vtime.Virtual
			ndA.OnPropose = func(_ uint64, v vtime.Virtual) { ownA = v }
			rtA.Start()
			rtB.Start()

			// Survivor A: the payload (maybe) arrived, B's proposal arrived,
			// C's was lost — one vote short of the full-view median forever.
			if tc.withPayload {
				loopA.At(10*sim.Millisecond, "pktA", func() { ndA.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
			}
			loopA.At(15*sim.Millisecond, "peerB@A", func() { ndA.HandlePeerProposal("B", 0, 1, vB) })
			if err := loopA.RunUntil(50 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if len(deliveredA) != 0 {
				t.Fatalf("A resolved without C's vote: %v", deliveredA)
			}

			// Survivor B: hand-deliver the dead origin's proposal here only.
			loopB.At(10*sim.Millisecond, "pktB", func() { ndB.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
			loopB.At(14*sim.Millisecond, "peerC@B", func() { ndB.HandlePeerProposal("C", 0, 1, vC) })
			if tc.resolvedAtB {
				// A's proposal did reach B, so B resolved the 3-median. In
				// the no-payload case A itself proposed nothing; the stand-in
				// value models a proposal from before A's pending state was
				// wiped (a view change re-proposal round does exactly that).
				vA := ownA
				if !tc.withPayload {
					vA = vtime.Virtual(29 * sim.Millisecond)
				}
				loopB.At(15*sim.Millisecond, "peerA@B", func() { ndB.HandlePeerProposal("A", 0, 1, vA) })
			}
			if err := loopB.RunUntil(50 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if got := ndB.Resolved() == 1; got != tc.resolvedAtB {
				t.Fatalf("B resolved=%v, want %v", got, tc.resolvedAtB)
			}

			// The round: B exports, A imports. Exactly one sequence repairs.
			x := ndB.ExportReconcile("C")
			if x.Origin != "B" || x.DeadOrigin != "C" {
				t.Fatalf("export origin=%q dead=%q", x.Origin, x.DeadOrigin)
			}
			if tc.resolvedAtB && len(x.Resolutions) != 1 {
				t.Fatalf("export resolutions = %+v, want seq 1", x.Resolutions)
			}
			if !tc.resolvedAtB && len(x.DeadVotes) != 1 {
				t.Fatalf("export dead votes = %+v, want seq 1", x.DeadVotes)
			}
			if got := ndA.ImportReconcile(x); got != 1 {
				t.Fatalf("first import repaired %d, want 1", got)
			}
			// Idempotence: a second import of the same export must be a
			// no-op.
			if got := ndA.ImportReconcile(x); got != 0 {
				t.Fatalf("repeated import repaired %d, want 0", got)
			}

			want := GroupMedian([]vtime.Virtual{ownA, vB, vC})
			if tc.resolvedAtB {
				want = x.Resolutions[0].Virt
			}
			if !tc.withPayload {
				// The decision is stashed until the payload shows up; its
				// arrival delivers without proposing.
				if len(deliveredA) != 0 || ndA.ForcedPending() != 1 {
					t.Fatalf("delivered=%v forced=%d before payload", deliveredA, ndA.ForcedPending())
				}
				proposals := 0
				ndA.OnPropose = func(uint64, vtime.Virtual) { proposals++ }
				loopA.At(60*sim.Millisecond, "latePktA", func() { ndA.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
				if err := loopA.RunUntil(100 * sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				if proposals != 0 {
					t.Fatalf("forced delivery proposed %d times", proposals)
				}
			}
			if err := loopA.RunUntil(120 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if len(deliveredA) != 1 || deliveredA[0] != want {
				t.Fatalf("A delivered %v, want [%v]", deliveredA, want)
			}
			if ndA.Pending() != 0 || ndA.ForcedPending() != 0 {
				t.Fatalf("repair left residue: pending=%d forced=%d", ndA.Pending(), ndA.ForcedPending())
			}
			if ndA.Resolved() != 1 {
				t.Fatalf("A resolved=%d, want 1", ndA.Resolved())
			}
		})
	}
}

// TestReconcileImportFences pins the rejection fences: an export from
// another view, from the device itself, or from an origin outside the
// installed live set must repair nothing.
func TestReconcileImportFences(t *testing.T) {
	loopA, rtA, ndA := reconcileTestDevice(t, "A", 85)
	rtA.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) {}
	rtA.Start()
	loopA.At(10*sim.Millisecond, "pkt", func() { ndA.HandleInbound(1, guest.Payload{Src: "c", Size: 64}) })
	if err := loopA.RunUntil(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	entry := []ReconcileEntry{{Seq: 1, Virt: vtime.Virtual(40 * sim.Millisecond)}}
	for _, tc := range []struct {
		name string
		x    ReconcileExport
	}{
		{name: "wrong view", x: ReconcileExport{Origin: "B", View: 7, DeadOrigin: "C", Resolutions: entry}},
		{name: "own export", x: ReconcileExport{Origin: "A", View: 0, DeadOrigin: "C", Resolutions: entry}},
	} {
		if got := ndA.ImportReconcile(tc.x); got != 0 {
			t.Fatalf("%s: repaired %d, want 0", tc.name, got)
		}
	}
	// Install a live view excluding B; B's (now stale) export must bounce.
	ndA.SetLiveReplicas(1, []string{"A", "C"})
	x := ReconcileExport{Origin: "B", View: 1, DeadOrigin: "C", Resolutions: entry}
	if got := ndA.ImportReconcile(x); got != 0 {
		t.Fatalf("dead-origin export repaired %d, want 0", got)
	}
}

// exportBytes is the fuzz target's wire form of a ReconcileExport: origin,
// dead origin (an index into A/B/C/D each) and view, one byte apiece, then
// 17-byte entries — a tag (even: resolution, odd: dead vote), the sequence
// and the virtual time, little-endian.
func exportBytes(x ReconcileExport) []byte {
	name := func(s string) byte { return byte(strings.Index("ABCD", s)) }
	b := []byte{name(x.Origin), name(x.DeadOrigin), byte(x.View)}
	for tag, entries := range [][]ReconcileEntry{x.Resolutions, x.DeadVotes} {
		for _, e := range entries {
			b = append(b, byte(tag))
			b = binary.LittleEndian.AppendUint64(b, e.Seq)
			b = binary.LittleEndian.AppendUint64(b, uint64(e.Virt))
		}
	}
	return b
}

func exportFromBytes(b []byte) ReconcileExport {
	var x ReconcileExport
	if len(b) < 3 {
		return x
	}
	x.Origin, x.DeadOrigin, x.View = string("ABCD"[b[0]%4]), string("ABCD"[b[1]%4]), uint64(b[2]%3)
	for b = b[3:]; len(b) >= 17; b = b[17:] {
		e := ReconcileEntry{Seq: binary.LittleEndian.Uint64(b[1:]), Virt: vtime.Virtual(binary.LittleEndian.Uint64(b[9:]))}
		if b[0]%2 == 0 {
			x.Resolutions = append(x.Resolutions, e)
		} else {
			x.DeadVotes = append(x.DeadVotes, e)
		}
	}
	return x
}

// FuzzImportReconcile: a reconcile export is another replica's state, taken
// under whatever view and live set that replica held. Whatever it holds,
// importing it into a survivor with sequences
// in every state — resolved, pending with and without its payload, never
// seen — must not panic, must not open a sequence beyond the pending
// window's span, and must be idempotent: the same export again repairs
// nothing. Seeded with the exports of TestReconcileRepairsSplitDelivery.
func FuzzImportReconcile(f *testing.F) {
	vB, vC := vtime.Virtual(30*sim.Millisecond), vtime.Virtual(31*sim.Millisecond)
	entry := func(v vtime.Virtual) []ReconcileEntry { return []ReconcileEntry{{Seq: 1, Virt: v}} }
	f.Add(exportBytes(ReconcileExport{Origin: "B", DeadOrigin: "C", DeadVotes: entry(vC)}))
	f.Add(exportBytes(ReconcileExport{Origin: "B", DeadOrigin: "C", Resolutions: entry(vB)}))
	f.Add(exportBytes(ReconcileExport{Origin: "B", DeadOrigin: "C", View: 2, Resolutions: entry(vB), DeadVotes: []ReconcileEntry{{Seq: 2, Virt: vC}, {Seq: 1 << 62, Virt: vC}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		loop, rt, nd := reconcileTestDevice(t, "A", 87)
		rt.OnNetDeliver = func(uint64, vtime.Virtual, sim.Time) {}
		rt.Start()
		// Seq 1 resolves; 2 holds its payload and B's vote; 3 only B's vote;
		// 4 was never heard of.
		loop.At(10*sim.Millisecond, "pkts", func() {
			nd.HandleInbound(1, guest.Payload{Src: "c", Size: 64})
			nd.HandleInbound(2, guest.Payload{Src: "c", Size: 64})
		})
		loop.At(15*sim.Millisecond, "votes", func() {
			nd.HandlePeerProposal("B", 0, 1, vB)
			nd.HandlePeerProposal("C", 0, 1, vC)
			nd.HandlePeerProposal("B", 0, 2, vB)
			nd.HandlePeerProposal("B", 0, 3, vB)
		})
		if err := loop.RunUntil(20 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		x := exportFromBytes(data)
		if x.View == 2 {
			// A third of the inputs meet a device that has been through a
			// view change, with C gone.
			nd.SetLiveReplicas(2, []string{"A", "B"})
		}
		first := nd.ImportReconcile(x)
		if first > len(x.Resolutions)+len(x.DeadVotes) {
			t.Fatalf("%d repairs from %d entries", first, len(x.Resolutions)+len(x.DeadVotes))
		}
		if again := nd.ImportReconcile(x); again != 0 {
			t.Fatalf("second import of %+v repaired %d (first: %d)", x, again, first)
		}
		if span := nd.pending.Top() - nd.pending.Base(); span > seqwin.MaxSpan || nd.Pending() > 3+len(x.DeadVotes) {
			t.Fatalf("pending window spans %d with %d open after %+v", span, nd.Pending(), x)
		}
		// Whatever was adopted or stashed is delivered without incident.
		nd.HandleInbound(3, guest.Payload{Src: "c", Size: 64})
		if err := loop.RunUntil(60 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
}
