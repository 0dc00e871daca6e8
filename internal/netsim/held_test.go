package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"stopwatch/internal/sim"
)

// testHolder keeps every beacon while on, as a Dom0 keeps pacing beacons,
// and drops each held arrival once it has passed.
type testHolder struct {
	addr Addr
	net  *Network
	loop *sim.Loop
	on   bool
	held []Arrival
	// holds counts arrivals taken, passed those found passed, unheld those
	// handed back.
	holds, passed, unheld int
}

func (h *testHolder) Address() Addr { return h.addr }

func (h *testHolder) Deliver(*Packet) { h.drain() }

func (h *testHolder) Hold(p *Packet, a Arrival) bool {
	if !h.on {
		return false
	}
	h.held = append(h.held, a)
	h.holds++
	return true
}

func (h *testHolder) Unhold() {
	h.drain()
	for _, a := range h.held {
		h.net.Unhold(a, nil, &PacketBody{Kind: BodyPace})
	}
	h.unheld += len(h.held)
	h.held = h.held[:0]
}

// drain forgets the held arrivals that have passed.
func (h *testHolder) drain() {
	kept := h.held[:0]
	for _, a := range h.held {
		if h.loop.ArrivalPassed(a.When, a.K1, a.K2) {
			h.passed++
		} else {
			kept = append(kept, a)
		}
	}
	h.held = kept
}

// runHeldStats sends "beat" and "data" packets from four nodes, two of them
// on the other shard at K = 2, to h on shard 0 every 250 µs over links of
// 1 ms, and a tenth of them are lost. Two of the nodes' links have no
// jitter, so their arrivals land on the 250 µs grid; the other two's have
// 400 µs, so h is offered arrivals out of their order. The control loop
// reads Stats on that grid, so before, at and after arrivals; detaches h at
// 20 ms, while arrivals to it are in flight, and attaches it again at
// 20.5 ms. It returns every reading, the last one after the run drained.
func runHeldStats(t *testing.T, shards int, hold bool) ([]Stats, *testHolder) {
	t.Helper()
	ctrl := sim.NewLoop()
	n, err := New(ctrl, sim.NewSource(3).Stream("net"), LinkConfig{Latency: sim.Millisecond, LossProb: 0.1})
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
	h := &testHolder{addr: "h", net: n, loop: loops[0], on: hold}
	if err := n.Attach(h); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		src := Addr(fmt.Sprintf("s%d", i))
		if err := n.AssignShard(src, i%shards); err != nil {
			t.Fatal(err)
		}
		if err := n.SetAccess(src, LinkConfig{Latency: sim.Millisecond, JitterMax: sim.Time(i/2) * 400 * sim.Microsecond, LossProb: 0.1}); err != nil {
			t.Fatal(err)
		}
		l := loops[i%shards]
		var pump func(a, b any, k uint64)
		pump = func(_, _ any, k uint64) {
			beat := n.AllocPacket(src, "h", 48, "beat", nil)
			beat.Body.Kind = BodyPace
			n.Send(beat)
			if k%3 == 0 {
				n.Send(n.AllocPacket(src, "h", 64, "data", nil))
			}
			if k < 160 {
				l.AfterTimer(250*sim.Microsecond, "pump", pump, nil, nil, k+1)
			}
		}
		l.AtTimer(sim.Time(i)*100*sim.Microsecond, "pump", pump, nil, nil, 0)
	}
	var reads []Stats
	var read func()
	read = func() {
		reads = append(reads, n.Stats())
		if ctrl.Now() < 45*sim.Millisecond {
			ctrl.After(250*sim.Microsecond, "read", read)
		}
	}
	ctrl.At(0, "read", read)
	ctrl.At(20*sim.Millisecond, "detach", func() { n.Detach("h") })
	ctrl.At(20*sim.Millisecond+500*sim.Microsecond, "attach", func() {
		if err := n.Attach(h); err != nil {
			t.Fatal(err)
		}
	})
	coord := sim.NewCoordinator(ctrl, loops, n.Lookahead, n.Exchange)
	coord.OnWindow(n.Offer)
	if err := coord.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	return append(reads, n.Stats()), h
}

// TestHeldArrivalsCountAsDelivered: Stats read at every barrier of a run in
// which one node holds arrivals equal those of its twin that holds none, at
// K = 1 and 2 — a held arrival counts as delivered from its instant on, and
// one whose node is detached before its instant counts as lost.
func TestHeldArrivalsCountAsDelivered(t *testing.T) {
	for _, shards := range []int{1, 2} {
		want, _ := runHeldStats(t, shards, false)
		got, h := runHeldStats(t, shards, true)
		if len(got) != len(want) {
			t.Fatalf("K = %d: %d readings, the twin took %d", shards, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("K = %d, reading %d: %+v with holds, %+v without", shards, i, got[i], want[i])
			}
		}
		if h.holds == 0 || h.passed == 0 || h.unheld == 0 {
			t.Fatalf("K = %d: %d held, %d passed, %d handed back at the detach; want each > 0", shards, h.holds, h.passed, h.unheld)
		}
		if last := want[len(want)-1]; last.Lost == 0 || last.Delivered == 0 {
			t.Fatalf("K = %d: %+v — the run lost or delivered nothing", shards, last)
		}
	}
}

// TestHoldAllocatesNothing: a held arrival and its drain allocate nothing
// once the fabric's record of held arrivals has grown.
func TestHoldAllocatesNothing(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond})
	h := &testHolder{addr: "h", net: n, loop: loop, on: true, held: make([]Arrival, 0, 4)}
	if err := n.Attach(h); err != nil {
		t.Fatal(err)
	}
	a, dst := n.Endpoint("a"), n.Endpoint("h")
	hop := func() {
		beat := n.AllocTo(a, dst, 48, "beat", nil)
		beat.Body.Kind = BodyPace
		n.Send(beat)
		n.Exchange()
		n.Offer(0)
		if err := loop.RunUntil(loop.Now() + 2*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		h.drain()
	}
	for range 64 {
		hop()
	}
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Errorf("%v allocs per held arrival, want 0", allocs)
	}
	if h.holds == 0 || len(h.held) != 0 {
		t.Fatalf("%d held, %d not drained", h.holds, len(h.held))
	}
	if s := n.Stats(); s.Delivered != uint64(h.holds) {
		t.Fatalf("Stats counts %d delivered of %d held", s.Delivered, h.holds)
	}
}

// TestUnholdRefusesWhatIsNotHeld: an arrival handed back twice, or one that
// has passed, is a holder's bug, and the fabric says so.
func TestUnholdRefusesWhatIsNotHeld(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond})
	h := &testHolder{addr: "h", net: n, loop: loop, on: true}
	if err := n.Attach(h); err != nil {
		t.Fatal(err)
	}
	beat := n.AllocPacket("a", "h", 48, "beat", nil)
	beat.Body.Kind = BodyPace
	n.Send(beat)
	a := h.held[0]
	h.Unhold()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Unhold of one arrival did not panic")
		}
	}()
	n.Unhold(a, nil, &PacketBody{})
}
