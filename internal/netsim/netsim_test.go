package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

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
	// In flight, the packet has a kind row on its shard but counts nowhere.
	if s := n.Stats(); s.Delivered != 0 || s.ByKind != nil {
		t.Fatalf("stats of a packet in flight %+v", s)
	}
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

// TestLinkShapeFromEndpoints is the rule a link's shape follows: its
// source's access link, else its destination's, else the fabric default,
// for links first used on any of K shards, sequential and parallel. A fault
// on a client's never-used link (fabric-loss.yaml's probe → guest:g-0 loss)
// creates that link in the client's shape.
func TestLinkShapeFromEndpoints(t *testing.T) {
	const def, cli, egr = sim.Millisecond, 4 * sim.Millisecond, 3 * sim.Millisecond
	addrs := []Addr{"client", "svc:g", "machine:0", "egress"}
	const client, svc, machine, egress = 0, 1, 2, 3
	want := map[[2]int]sim.Time{
		{client, svc}:     cli, // the source's access link
		{svc, client}:     cli, // the destination's
		{client, egress}:  cli, // the source's, over the destination's
		{egress, client}:  egr,
		{machine, egress}: egr,
		{egress, machine}: egr,
		{machine, svc}:    def, // neither has one
	}
	for _, k := range []int{1, 2, 4} {
		for _, parallel := range []bool{false, true} {
			ctrl := sim.NewLoop()
			n, err := New(ctrl, sim.NewSource(1).Stream("net"), LinkConfig{Latency: def})
			if err != nil {
				t.Fatal(err)
			}
			loops := make([]*sim.Loop, k)
			for i := range loops {
				loops[i] = sim.NewLoop()
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(n.SetShards(loops))
			got := make([]map[Addr]sim.Time, len(addrs)) // one writer each: the node's shard
			for i, a := range addrs {
				i, l := i, loops[i%k]
				got[i] = map[Addr]sim.Time{}
				must(n.AssignShard(a, i%k))
				must(n.Attach(&FuncNode{Addr: a, Fn: func(p *Packet) { got[i][p.Src] = l.Now() }}))
			}
			must(n.SetAccess(addrs[client], LinkConfig{Latency: cli}))
			must(n.SetAccess(addrs[egress], LinkConfig{Latency: egr}))
			must(n.InjectLoss(addrs[client], addrs[svc], 0))
			for pair := range want {
				n.Send(n.AllocPacket(addrs[pair[0]], addrs[pair[1]], 1, "x", nil))
			}
			co := sim.NewCoordinator(ctrl, loops, n.Lookahead, n.Exchange)
			co.SetParallel(parallel)
			must(co.RunUntil(10 * sim.Millisecond))
			for pair, lat := range want {
				if at, ok := got[pair[1]][addrs[pair[0]]]; !ok || at != lat {
					t.Errorf("K=%d parallel=%v: %s→%s delivered at %v (%v), want %v",
						k, parallel, addrs[pair[0]], addrs[pair[1]], at, ok, lat)
				}
			}
			if s := n.Stats(); s.Endpoints != len(addrs) || s.Links != len(want) || s.Delivered != uint64(len(want)) {
				t.Errorf("K=%d parallel=%v: stats %+v, want %d endpoints and %d links", k, parallel, s, len(addrs), len(want))
			}
		}
	}
}

// TestSetAccessBeforeAnyLink: an access link is set once, before any link
// starts or ends at the address (a send, a fault), so no link changes
// shape; it validates its config and lowers the lookahead.
func TestSetAccessBeforeAnyLink(t *testing.T) {
	n, _ := testNet(t, LinkConfig{Latency: 2 * sim.Millisecond})
	n.Send(&Packet{Src: "a", Dst: "b", Size: 1, Kind: "x"})
	if err := n.InjectLoss("c", "d", 0.5); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []Addr{"a", "b", "c", "d", ""} {
		if err := n.SetAccess(addr, LinkConfig{}); !errors.Is(err, ErrNet) {
			t.Errorf("SetAccess(%q) = %v, want ErrNet", addr, err)
		}
	}
	if err := n.SetAccess("e", LinkConfig{Latency: -1}); !errors.Is(err, ErrNet) {
		t.Errorf("negative latency: %v, want ErrNet", err)
	}
	if err := n.SetAccess("e", LinkConfig{Latency: sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetAccess("e", LinkConfig{Latency: sim.Millisecond}); !errors.Is(err, ErrNet) {
		t.Errorf("second SetAccess = %v, want ErrNet", err)
	}
	if la := n.Lookahead(); la != sim.Millisecond {
		t.Errorf("lookahead %v, want the access link's 1ms", la)
	}
}

// TestSetAccessRefusedOnceLinked: SetAccess is refused on an address a send
// or a fault has touched, also when the sends ran on shard goroutines, two
// shards making links to one address at once, and accepted on a fresh
// address. The set-once check reads one flag of the address, so its cost
// does not grow with the endpoints the fabric has interned.
func TestSetAccessRefusedOnceLinked(t *testing.T) {
	n, _ := testNet(t, LinkConfig{Latency: sim.Millisecond})
	if err := n.SetShards([]*sim.Loop{sim.NewLoop(), sim.NewLoop()}); err != nil {
		t.Fatal(err)
	}
	for k, a := range []Addr{"s0", "s1"} {
		if err := n.AssignShard(a, k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, src := range []Addr{"s0", "s1"} {
		wg.Add(1)
		go func() { // the source's shard goroutine
			defer wg.Done()
			n.Send(&Packet{Src: src, Dst: "d", Size: 1, Kind: "x"})
		}()
	}
	wg.Wait()
	if err := n.InjectLoss("f", "g", 0.5); err != nil {
		t.Fatal(err)
	}
	for _, a := range []Addr{"s0", "s1", "d", "f", "g"} {
		if err := n.SetAccess(a, LinkConfig{Latency: sim.Millisecond}); !errors.Is(err, ErrNet) {
			t.Errorf("SetAccess(%q) after a link touched it = %v, want ErrNet", a, err)
		}
	}
	if err := n.SetAccess("fresh", LinkConfig{Latency: sim.Millisecond}); err != nil {
		t.Fatalf("SetAccess on a fresh address: %v", err)
	}

	// The fastest of five rounds of 1,000 SetAccess calls on fresh
	// addresses, in a fabric of 10 and of 10,000 linked endpoints.
	cost := func(endpoints int) time.Duration {
		n, _ := testNet(t, LinkConfig{Latency: sim.Millisecond})
		for i := range endpoints {
			n.Send(&Packet{Src: Addr(fmt.Sprint("e", i)), Dst: "sink", Size: 1, Kind: "x"})
		}
		best := time.Duration(1 << 62)
		for r := range 5 {
			addrs := make([]Addr, 1000)
			for i := range addrs {
				addrs[i] = Addr(fmt.Sprint("a", r, "/", i))
			}
			start := time.Now()
			for _, a := range addrs {
				if err := n.SetAccess(a, LinkConfig{Latency: sim.Millisecond}); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := cost(10), cost(10_000)
	if large > 10*small+time.Millisecond {
		t.Fatalf("1,000 SetAccess calls take %v among 10,000 endpoints and %v among 10", large, small)
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

// TestNewLinkCostsOneAllocation: a new directed link's record is carved from
// its source shard's chunk (its stream lives inline, its name is hashed in
// parts), so once the chunk is at full size 64 new links from one source
// cost at most two allocations — one chunk, or two when they straddle a
// boundary. The source's table is presized, so only the records count;
// TestEndpointTableFirstPutMakesRoom covers the table.
func TestNewLinkCostsOneAllocation(t *testing.T) {
	n, _ := testNet(t, LinkConfig{Latency: sim.Millisecond})
	warm, src := n.Endpoint("dom0:warm-up"), n.Endpoint("dom0:a-source-address")
	dsts := make([]*Endpoint, 256)
	for i := range dsts {
		dsts[i] = n.Endpoint(Addr(fmt.Sprintf("prop:destination-host-%04d/guest", i)))
	}
	for _, d := range dsts[:128] {
		n.linkOn(warm, d) // the shard's chunk reaches its full size
	}
	src.links.ents = make([]tableEntry[*link], 0, 128)
	next := dsts[128:]
	allocs := testing.AllocsPerRun(1, func() {
		for _, d := range next[:64] {
			n.linkOn(src, d)
		}
		next = next[64:]
	})
	if allocs > 2 {
		t.Errorf("64 new links cost %v allocations, want at most 2", allocs)
	}
	if l, ok := src.links.Get(dsts[200]); !ok || l.hash == 0 || l.cfg.Latency != sim.Millisecond {
		t.Errorf("link to %s: %+v, %v", dsts[200].Addr(), l, ok)
	}
}

// TestEndpointTableFirstPutMakesRoom: a table's first Put makes room for
// four peers at once, where growing from one would take three allocations.
func TestEndpointTableFirstPutMakesRoom(t *testing.T) {
	n, _ := testNet(t, LinkConfig{Latency: sim.Millisecond})
	eps := []*Endpoint{n.Endpoint("d"), n.Endpoint("b"), n.Endpoint("c"), n.Endpoint("a")}
	tab := new(EndpointTable[int])
	allocs := testing.AllocsPerRun(10, func() {
		*tab = EndpointTable[int]{}
		for i, e := range eps {
			tab.Put(e, i)
		}
	})
	if allocs != 1 {
		t.Errorf("four Puts into a fresh table cost %v allocations, want 1", allocs)
	}
	for i, e := range eps {
		if v, ok := tab.Get(e); !ok || v != i {
			t.Errorf("Get(%s) = %d, %v; want %d", e.Addr(), v, ok, i)
		}
	}
}
