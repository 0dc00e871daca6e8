package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"stopwatch/internal/sim"
)

func testNet(t *testing.T, def LinkConfig) (*Network, *sim.Loop) {
	t.Helper()
	loop := sim.NewLoop()
	rng := sim.NewSource(42).Stream("net")
	n, err := New(loop, rng, def)
	if err != nil {
		t.Fatal(err)
	}
	return n, loop
}

func TestSendDeliversAfterLatency(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: 5 * sim.Millisecond})
	var at sim.Time
	var got *Packet
	sink := &FuncNode{Addr: "b", Fn: func(p *Packet) { at = loop.Now(); got = p }}
	if err := n.Attach(sink); err != nil {
		t.Fatal(err)
	}
	n.Send(&Packet{Src: "a", Dst: "b", Size: 100, Kind: "test"})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if at != 5*sim.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", at)
	}
	if got.ID == 0 {
		t.Fatal("packet ID not assigned")
	}
	if s := n.Stats(); s.Delivered != 1 || s.Lost != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 B/s → a 500B packet takes 500ms on the wire; two back-to-back
	// packets serialize.
	n, loop := testNet(t, LinkConfig{BandwidthBps: 1000})
	var arrivals []sim.Time
	sink := &FuncNode{Addr: "b", Fn: func(p *Packet) { arrivals = append(arrivals, loop.Now()) }}
	if err := n.Attach(sink); err != nil {
		t.Fatal(err)
	}
	n.Send(&Packet{Src: "a", Dst: "b", Size: 500, Kind: "p1"})
	n.Send(&Packet{Src: "a", Dst: "b", Size: 500, Kind: "p2"})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %v", arrivals)
	}
	if arrivals[0] != 500*sim.Millisecond || arrivals[1] != sim.Second {
		t.Fatalf("serialization wrong: %v", arrivals)
	}
}

func TestPerPairLinkOverride(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond})
	if err := n.SetDuplexLink("a", "b", LinkConfig{Latency: 20 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var atAB, atBC sim.Time
	if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) { atAB = loop.Now() }}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(&FuncNode{Addr: "c", Fn: func(*Packet) { atBC = loop.Now() }}); err != nil {
		t.Fatal(err)
	}
	n.Send(&Packet{Src: "a", Dst: "b", Size: 1, Kind: "x"})
	n.Send(&Packet{Src: "b", Dst: "c", Size: 1, Kind: "y"})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if atAB != 20*sim.Millisecond {
		t.Fatalf("override link latency not applied: %v", atAB)
	}
	if atBC != sim.Millisecond {
		t.Fatalf("default link latency not applied: %v", atBC)
	}
}

func TestLossInjection(t *testing.T) {
	n, loop := testNet(t, LinkConfig{LossProb: 1.0})
	delivered := 0
	if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		n.Send(&Packet{Src: "a", Dst: "b", Size: 1, Kind: "x"})
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("loss=1.0 delivered %d packets", delivered)
	}
	if s := n.Stats(); s.Lost != 50 {
		t.Fatalf("lost = %d, want 50", s.Lost)
	}
	sent, dropped := n.LinkStats("a", "b")
	if sent != 50 || dropped != 50 {
		t.Fatalf("link stats sent=%d dropped=%d", sent, dropped)
	}
}

func TestPartialLossRate(t *testing.T) {
	n, loop := testNet(t, LinkConfig{LossProb: 0.25})
	delivered := 0
	if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	const total = 20000
	for i := 0; i < total; i++ {
		n.Send(&Packet{Src: "a", Dst: "b", Size: 1, Kind: "x"})
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	rate := float64(delivered) / total
	if rate < 0.73 || rate > 0.77 {
		t.Fatalf("delivery rate %v, want ~0.75", rate)
	}
}

func TestDeliveryToUnknownAddressCountsLost(t *testing.T) {
	n, loop := testNet(t, LinkConfig{})
	n.Send(&Packet{Src: "a", Dst: "ghost", Size: 1, Kind: "x"})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.Lost != 1 || s.Delivered != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDetach(t *testing.T) {
	n, loop := testNet(t, LinkConfig{})
	delivered := 0
	if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	n.Detach("b")
	n.Send(&Packet{Src: "a", Dst: "b", Size: 1, Kind: "x"})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("detached node received packet")
	}
}

func TestValidation(t *testing.T) {
	loop := sim.NewLoop()
	rng := sim.NewSource(1).Stream("x")
	if _, err := New(nil, rng, LinkConfig{}); !errors.Is(err, ErrNet) {
		t.Fatal("nil loop should fail")
	}
	if _, err := New(loop, nil, LinkConfig{}); !errors.Is(err, ErrNet) {
		t.Fatal("nil rng should fail")
	}
	if _, err := New(loop, rng, LinkConfig{LossProb: 2}); !errors.Is(err, ErrNet) {
		t.Fatal("bad loss prob should fail")
	}
	n, _ := New(loop, rng, LinkConfig{})
	if err := n.Attach(nil); !errors.Is(err, ErrNet) {
		t.Fatal("nil node should fail")
	}
	if err := n.Attach(&FuncNode{Addr: ""}); !errors.Is(err, ErrNet) {
		t.Fatal("empty addr should fail")
	}
	if err := n.SetLink("a", "b", LinkConfig{Latency: -1}); !errors.Is(err, ErrNet) {
		t.Fatal("negative latency should fail")
	}
}

func TestJitterWithinBounds(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: 10 * sim.Millisecond, JitterMax: 5 * sim.Millisecond})
	var arrivals []sim.Time
	if err := n.Attach(&FuncNode{Addr: "b", Fn: func(*Packet) { arrivals = append(arrivals, loop.Now()) }}); err != nil {
		t.Fatal(err)
	}
	const total = 500
	for i := 0; i < total; i++ {
		// Distinct send times so serialization doesn't matter.
		i := i
		loop.At(sim.Time(i)*sim.Second, "send", func() {
			n.Send(&Packet{Src: "a", Dst: "b", Size: 1, Kind: "x"})
		})
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	varied := false
	for i, at := range arrivals {
		base := sim.Time(i)*sim.Second + 10*sim.Millisecond
		d := at - base
		if d < 0 || d >= 5*sim.Millisecond {
			t.Fatalf("jitter out of bounds: %v", d)
		}
		if d != 0 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never varied")
	}
}

func TestPacketCloneAndString(t *testing.T) {
	p := &Packet{ID: 9, Src: "a", Dst: "b", Size: 42, Kind: "k"}
	c := p.Clone()
	c.Dst = "c"
	if p.Dst != "b" {
		t.Fatal("clone aliases original")
	}
	if p.String() != "pkt#9 k a→b 42B" {
		t.Fatalf("String = %q", p.String())
	}
}

// jitterArrivals interns `before` in order, then sends three packets on
// a→b under a jittered default link and returns their arrival instants.
func jitterArrivals(t *testing.T, before ...Addr) []sim.Time {
	t.Helper()
	loop := sim.NewLoop()
	n, err := New(loop, sim.NewSource(42).Stream("pin"), LinkConfig{Latency: sim.Millisecond, JitterMax: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range before {
		n.Endpoint(a)
	}
	var at []sim.Time
	if err := n.Attach(&FuncNode{Addr: "dom0:host1", Fn: func(*Packet) { at = append(at, loop.Now()) }}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		loop.At(sim.Time(i)*10*sim.Millisecond, "send", func() {
			n.Send(n.AllocPacket("dom0:host0", "dom0:host1", 64, "t", nil))
		})
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	return at
}

// TestLinkIdentityIsTheNames pins what a link's behaviour derives from: the
// arrival-order hash and the jitter stream are functions of the endpoint
// names and the fabric seed. An endpoint ID — which depends on the order
// addresses were interned in — can reach neither.
func TestLinkIdentityIsTheNames(t *testing.T) {
	if got := linkHash("dom0:host0", "dom0:host1"); got != 0x648c2ba839efec70 {
		t.Errorf("linkHash = %#x: the arrival key k1 is pinned to the names", got)
	}
	want := []sim.Time{1946113, 11275327, 21389338}
	for _, before := range [][]Addr{nil, {"z", "dom0:host1", "y", "dom0:host0"}, {"dom0:host0", "x"}} {
		if got := jitterArrivals(t, before...); !reflect.DeepEqual(got, want) {
			t.Errorf("interned %v first: arrivals %d, want %d", before, got, want)
		}
	}
}

// TestReadsCreateNoLinkState: LinkStats and LinkFaults on a pair that never
// carried traffic report zeros (and the configured loss) without starting
// a link — the pair's first real send still sees a fresh stream.
func TestReadsCreateNoLinkState(t *testing.T) {
	n, _ := testNet(t, LinkConfig{Latency: sim.Millisecond, LossProb: 0.25})
	if sent, dropped := n.LinkStats("a", "b"); sent != 0 || dropped != 0 {
		t.Fatalf("LinkStats on an unused pair = (%d, %d)", sent, dropped)
	}
	if loss, part := n.LinkFaults("a", "b"); loss != 0.25 || part {
		t.Fatalf("LinkFaults on an unused pair = (%v, %v), want (0.25, false)", loss, part)
	}
	if len(n.byName) != 0 {
		t.Fatalf("reads interned %d addresses", len(n.byName))
	}
	if err := n.SetLink("a", "b", LinkConfig{Latency: sim.Millisecond, LossProb: 0.5}); err != nil {
		t.Fatal(err)
	}
	if loss, _ := n.LinkFaults("a", "b"); loss != 0.5 {
		t.Fatalf("LinkFaults on a configured, unused pair = %v, want 0.5", loss)
	}
	if l := n.peekLink("a", "b"); l == nil || l.started {
		t.Fatal("reading a configured pair started its link")
	}
}

// TestHopAllocatesNothing: a steady-state Send→Deliver allocates nothing,
// by handle or by name.
func TestHopAllocatesNothing(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond, JitterMax: sim.Microsecond})
	if err := n.Attach(&FuncNode{Addr: "b"}); err != nil {
		t.Fatal(err)
	}
	a, b := n.Endpoint("a"), n.Endpoint("b")
	for name, hop := range map[string]func(){
		"handle": func() { n.Send(n.AllocTo(a, b, 64, "t", nil)) },
		"name":   func() { n.Send(n.AllocPacket("a", "b", 64, "t", nil)) },
	} {
		if allocs := testing.AllocsPerRun(200, func() { hop(); loop.ProcessNextEvent() }); allocs != 0 {
			t.Errorf("%s: %v allocs per hop, want 0", name, allocs)
		}
	}
}

// TestNewLinkCostsOneAllocation: starting a directed link allocates the
// link record alone (its stream lives inline, its name is hashed in parts);
// the endpoint table's growth is amortised away.
func TestNewLinkCostsOneAllocation(t *testing.T) {
	n, _ := testNet(t, LinkConfig{Latency: sim.Millisecond})
	src := n.Endpoint("dom0:a-source-address")
	dsts := make([]*Endpoint, 1001)
	for i := range dsts {
		dsts[i] = n.Endpoint(Addr(fmt.Sprintf("prop:destination-host-%04d/guest", i)))
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() { n.linkOn(src, dsts[i]); i++ }); allocs != 1 {
		t.Errorf("%v allocs per new link, want 1", allocs)
	}
}
