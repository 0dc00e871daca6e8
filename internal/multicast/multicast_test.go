package multicast

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"stopwatch/internal/netsim"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
)

type member struct {
	addr netsim.Addr
	rx   *Receiver
	got  []string
}

// buildGroup wires a sender and three receivers on one fabric with the given
// loss probability on every link; naks counts the NAKs reaching the sender.
func buildGroup(t *testing.T, loss float64, seed uint64) (loop *sim.Loop, naks *int, snd *Sender, members []*member) {
	t.Helper()
	loop, naks = sim.NewLoop(), new(int)
	src := sim.NewSource(seed)
	net, err := netsim.New(loop, src.Stream("net"), netsim.LinkConfig{
		Latency:   sim.Millisecond,
		JitterMax: 200 * sim.Microsecond,
		LossProb:  loss,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []netsim.Addr{"h1", "h2", "h3"}
	members = make([]*member, len(addrs))
	for i, a := range addrs {
		m := &member{addr: a}
		rx, err := NewReceiver(net, loop, ReceiverConfig{
			Addr: a,
			OnData: func(src netsim.Addr, seq uint64, kind string, body netsim.PacketBody) {
				m.got = append(m.got, fmt.Sprintf("%d:%s:%v", seq, kind, body.Data))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		m.rx = rx
		members[i] = m
		if err := net.Attach(&netsim.FuncNode{Addr: a, Fn: func(p *netsim.Packet) { rx.Handle(p) }}); err != nil {
			t.Fatal(err)
		}
	}
	snd, err = NewSender(net, loop, SenderConfig{Src: "ingress", Group: addrs})
	if err != nil {
		t.Fatal(err)
	}
	// NAKs flow back to the sender's address.
	if err := net.Attach(&netsim.FuncNode{Addr: "ingress", Fn: func(p *netsim.Packet) {
		if snd.Handle(p) && p.Kind == "pgm:nak" {
			*naks++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	return loop, naks, snd, members
}

func TestLosslessDelivery(t *testing.T) {
	loop, naks, snd, members := buildGroup(t, 0, 1)
	for i := 0; i < 20; i++ {
		snd.Multicast("msg", 100, netsim.PacketBody{Data: i})
	}
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if len(m.got) != 20 {
			t.Fatalf("%s got %d messages, want 20", m.addr, len(m.got))
		}
		for i, g := range m.got {
			want := fmt.Sprintf("%d:msg:%d", i+1, i)
			if g != want {
				t.Fatalf("%s msg %d = %q, want %q", m.addr, i, g, want)
			}
		}
	}
	if *naks != 0 {
		t.Fatalf("%d NAKs on a lossless fabric", *naks)
	}
}

// TestSetGroupEmptySilencesSender covers the sole-survivor reconfiguration:
// an empty group silences the sender (no data, no SPM heartbeats that
// would resurrect stream state on departed members) without closing it —
// a later SetGroup restores delivery to primed receivers, and only Close
// retires the sender for good.
func TestSetGroupEmptySilencesSender(t *testing.T) {
	loop, _, snd, members := buildGroup(t, 0, 21)
	snd.Multicast("msg", 64, netsim.PacketBody{Data: "one"})
	if err := loop.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := snd.SetGroup(nil); err != nil {
		t.Fatalf("empty group rejected: %v", err)
	}
	if seq := snd.Multicast("msg", 64, netsim.PacketBody{Data: "two"}); seq != 2 {
		t.Fatalf("silenced sender still numbers messages: seq=%d", seq)
	}
	if err := loop.RunUntil(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if len(m.got) != 1 {
			t.Fatalf("%s heard %d messages from a silenced sender", m.addr, len(m.got))
		}
	}
	// One member returns, primed at the current sequence.
	if err := snd.SetGroup([]netsim.Addr{members[0].addr}); err != nil {
		t.Fatal(err)
	}
	members[0].rx.Prime("ingress", snd.NextSeq())
	snd.Multicast("msg", 64, netsim.PacketBody{Data: "three"})
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(members[0].got) != 2 || len(members[1].got) != 1 {
		t.Fatalf("restored group delivery wrong: %d/%d", len(members[0].got), len(members[1].got))
	}
	if got := len(snd.Group()); got != 1 {
		t.Fatalf("Group() reports %d members", got)
	}
	snd.Close()
	if seq := snd.Multicast("msg", 64, netsim.PacketBody{Data: "four"}); seq != 0 {
		t.Fatalf("closed sender accepted a message: seq=%d", seq)
	}
	// A NAK reaching a closed sender repairs nothing and restarts no
	// heartbeat.
	snd.Handle(&netsim.Packet{Src: members[0].addr, Dst: "ingress", Kind: "pgm:nak", Body: netsim.PacketBody{StreamSeq: 1, Seq: 1}})
	if n := loop.Pending(); n != 0 {
		t.Fatalf("%d events pending after a NAK to a closed sender", n)
	}
}

func TestLossRecovery(t *testing.T) {
	loop, naks, snd, members := buildGroup(t, 0.2, 7)
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		loop.At(sim.Time(i)*sim.Millisecond, "send", func() { snd.Multicast("msg", 100, netsim.PacketBody{Data: i}) })
	}
	if err := loop.RunUntil(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if len(m.got) != n {
			t.Fatalf("%s got %d/%d messages despite NAK recovery", m.addr, len(m.got), n)
		}
		for i, g := range m.got {
			want := fmt.Sprintf("%d:msg:%d", i+1, i)
			if g != want {
				t.Fatalf("%s out-of-order delivery at %d: %q", m.addr, i, g)
			}
		}
	}
	if *naks == 0 {
		t.Fatal("expected repair requests under 20% loss")
	}
}

func TestTailLossRecoveredViaSPM(t *testing.T) {
	// Drop everything to h1 initially, then heal the link: SPM heartbeats
	// must trigger recovery of the tail messages.
	loop := sim.NewLoop()
	src := sim.NewSource(11)
	net, err := netsim.New(loop, src.Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	rx, err := NewReceiver(net, loop, ReceiverConfig{
		Addr:   "h1",
		OnData: func(_ netsim.Addr, seq uint64, _ string, _ netsim.PacketBody) { got = append(got, seq) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(&netsim.FuncNode{Addr: "h1", Fn: func(p *netsim.Packet) { rx.Handle(p) }}); err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(net, loop, SenderConfig{Src: "s", Group: []netsim.Addr{"h1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(&netsim.FuncNode{Addr: "s", Fn: func(p *netsim.Packet) { snd.Handle(p) }}); err != nil {
		t.Fatal(err)
	}
	// Break the s→h1 link completely, send the batch (all lost), then heal.
	if err := net.SetLink("s", "h1", netsim.LinkConfig{LossProb: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		snd.Multicast("m", 50, netsim.PacketBody{Data: i})
	}
	loop.At(50*sim.Millisecond, "heal", func() {
		if err := net.SetLink("s", "h1", netsim.LinkConfig{Latency: sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
	})
	if err := loop.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("tail recovery delivered %d/5", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("order violated: %v", got)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	loop, _, snd, members := buildGroup(t, 0, 13)
	snd.Multicast("m", 10, netsim.PacketBody{Data: "x"})
	// Force a duplicate by NAKing a seq we already have — simulate by
	// sending the data packet twice via a second multicast of same content;
	// instead directly deliver a duplicate wire packet.
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	m := members[0]
	before := len(m.got)
	m.rx.Handle(&netsim.Packet{Src: "ingress", Dst: m.addr, Kind: "pgm:data", Body: netsim.PacketBody{StreamSeq: 1, StreamKind: "m", Data: "x"}})
	if len(m.got) != before {
		t.Fatal("duplicate was delivered")
	}
}

func TestHandleIgnoresForeignPackets(t *testing.T) {
	loop, _, snd, members := buildGroup(t, 0, 17)
	_ = loop
	if snd.Handle(&netsim.Packet{Kind: "tcp:data", Dst: "ingress"}) {
		t.Fatal("sender consumed foreign packet")
	}
	if members[0].rx.Handle(&netsim.Packet{Kind: "tcp:data"}) {
		t.Fatal("receiver consumed foreign packet")
	}
	// Malformed packets are consumed but ignored.
	if !snd.Handle(&netsim.Packet{Kind: "pgm:nak", Dst: "ingress", Payload: "garbage"}) {
		t.Fatal("sender should consume malformed NAK")
	}
	if !members[0].rx.Handle(&netsim.Packet{Kind: "pgm:data"}) {
		t.Fatal("receiver should consume malformed data")
	}
}

func TestValidation(t *testing.T) {
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(1).Stream("n"), netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSender(nil, loop, SenderConfig{Src: "s", Group: []netsim.Addr{"a"}}); !errors.Is(err, ErrMulticast) {
		t.Fatal("nil net should fail")
	}
	if _, err := NewSender(net, loop, SenderConfig{Group: []netsim.Addr{"a"}}); !errors.Is(err, ErrMulticast) {
		t.Fatal("empty src should fail")
	}
	if _, err := NewSender(net, loop, SenderConfig{Src: "s"}); !errors.Is(err, ErrMulticast) {
		t.Fatal("empty group should fail")
	}
	if _, err := NewReceiver(net, nil, ReceiverConfig{Addr: "a", OnData: func(netsim.Addr, uint64, string, netsim.PacketBody) {}}); !errors.Is(err, ErrMulticast) {
		t.Fatal("nil loop should fail")
	}
	if _, err := NewReceiver(net, loop, ReceiverConfig{Addr: "a"}); !errors.Is(err, ErrMulticast) {
		t.Fatal("nil OnData should fail")
	}
}

// Property: under any loss rate < 1 and any message count, every member
// eventually receives every message exactly once, in order.
func TestReliabilityProperty(t *testing.T) {
	f := func(seed uint64, lossRaw uint8, nRaw uint8) bool {
		loss := float64(lossRaw%60) / 100 // 0..0.59
		n := int(nRaw%40) + 1
		loop := sim.NewLoop()
		src := sim.NewSource(seed)
		net, err := netsim.New(loop, src.Stream("net"), netsim.LinkConfig{
			Latency: sim.Millisecond, LossProb: loss,
		})
		if err != nil {
			return false
		}
		var got []uint64
		rx, err := NewReceiver(net, loop, ReceiverConfig{
			Addr:   "h",
			OnData: func(_ netsim.Addr, seq uint64, _ string, _ netsim.PacketBody) { got = append(got, seq) },
		})
		if err != nil {
			return false
		}
		if err := net.Attach(&netsim.FuncNode{Addr: "h", Fn: func(p *netsim.Packet) { rx.Handle(p) }}); err != nil {
			return false
		}
		snd, err := NewSender(net, loop, SenderConfig{Src: "s", Group: []netsim.Addr{"h"}})
		if err != nil {
			return false
		}
		if err := net.Attach(&netsim.FuncNode{Addr: "s", Fn: func(p *netsim.Packet) { snd.Handle(p) }}); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			snd.Multicast("m", 64, netsim.PacketBody{Data: i})
		}
		if err := loop.RunUntil(60 * sim.Second); err != nil {
			return false
		}
		if len(got) != n {
			t.Logf("seed=%d loss=%v n=%d: delivered %d", seed, loss, n, len(got))
			return false
		}
		for i, seq := range got {
			if seq != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSenderWindowRetainsLastWindowSize: the repair window is the last
// WindowSize bodies — a NAK inside it is repaired with the body sent, one
// that aged out is not — across every growth step of the ring and the
// switch from growing to sliding.
func TestSenderWindowRetainsLastWindowSize(t *testing.T) {
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(3).Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const window = 40 // not a power of two: the ring holds 64
	snd, err := NewSender(net, loop, SenderConfig{Src: "s", Group: []netsim.Addr{"sink"}, WindowSize: window})
	if err != nil {
		t.Fatal(err)
	}
	var repaired []uint64
	if err := net.Attach(&netsim.FuncNode{Addr: "r", Fn: func(p *netsim.Packet) {
		if p.Body.Data != p.Body.StreamSeq*7 {
			t.Errorf("repair of %d carries %v", p.Body.StreamSeq, p.Body.Data)
		}
		repaired = append(repaired, p.Body.StreamSeq)
	}}); err != nil {
		t.Fatal(err)
	}
	for sent := uint64(1); sent <= 3*window; sent++ {
		snd.Multicast("m", 64, netsim.PacketBody{Data: sent * 7})
		lo := uint64(1)
		if sent > window {
			lo = sent - window + 1
		}
		repaired = repaired[:0]
		// NAK {lo-1, lo, sent, sent+1}: a bit set based at lo-1.
		snd.Handle(&netsim.Packet{Src: "r", Dst: "s", Kind: "pgm:nak", Body: netsim.PacketBody{
			StreamSeq: lo - 1, Seq: 1 | 1<<1 | 1<<(sent-lo+1) | 1<<(sent-lo+2),
		}})
		if err := loop.RunUntil(loop.Now() + 2*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		want := []uint64{lo, sent}
		if lo == sent {
			want = []uint64{lo} // a set names it once
		}
		if fmt.Sprint(repaired) != fmt.Sprint(want) {
			t.Fatalf("after %d sends: repaired %v, want %v", sent, repaired, want)
		}
	}
}

// spmRig is one sender and one receiver ("h") on a loss-free 1ms fabric,
// recording the arrival time of every SPM and NAK.
type spmRig struct {
	loop       *sim.Loop
	net        *netsim.Network
	snd        *Sender
	rx         *Receiver
	got        []uint64
	spms, naks []sim.Time
}

func newSPMRig(t *testing.T, interval sim.Time) *spmRig {
	t.Helper()
	r := &spmRig{loop: sim.NewLoop()}
	var err error
	r.net, err = netsim.New(r.loop, sim.NewSource(5).Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.rx, err = NewReceiver(r.net, r.loop, ReceiverConfig{
		Addr:   "h",
		OnData: func(_ netsim.Addr, seq uint64, _ string, _ netsim.PacketBody) { r.got = append(r.got, seq) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.snd, err = NewSender(r.net, r.loop, SenderConfig{Src: "s", Group: []netsim.Addr{"h"}, SPMInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.net.Attach(&netsim.FuncNode{Addr: "h", Fn: func(p *netsim.Packet) {
		if p.Kind == "pgm:spm" {
			r.spms = append(r.spms, r.loop.Now())
		}
		r.rx.Handle(p)
	}}))
	must(r.net.Attach(&netsim.FuncNode{Addr: "s", Fn: func(p *netsim.Packet) {
		if p.Kind == "pgm:nak" {
			r.naks = append(r.naks, r.loop.Now())
		}
		r.snd.Handle(p)
	}}))
	return r
}

func (r *spmRig) run(t *testing.T, until sim.Time) {
	t.Helper()
	if err := r.loop.RunUntil(until); err != nil {
		t.Fatal(err)
	}
}

// Data is the advertisement: a stream that sends more often than
// SPMInterval pushes its heartbeat out with every send and never emits one
// — and no heartbeat event fires either, the pending one is moved.
func TestBusyStreamSendsNoHeartbeat(t *testing.T) {
	r := newSPMRig(t, 0)
	const n = 500
	for i := 0; i < n; i++ {
		r.loop.At(sim.Time(i)*4*sim.Millisecond, "send", func() { r.snd.Multicast("m", 64, netsim.PacketBody{}) })
	}
	last := sim.Time(n-1) * 4 * sim.Millisecond
	r.run(t, last+4*sim.Millisecond)
	if len(r.spms) != 0 || len(r.got) != n {
		t.Fatalf("busy stream: %d SPMs, %d/%d delivered", len(r.spms), len(r.got), n)
	}
	// n sends, n deliveries, nothing else: no heartbeat timer ever fired.
	if fired := r.loop.Fired(); fired != 2*n {
		t.Fatalf("%d events fired for %d sends", fired, n)
	}
	// The tail is still covered: the first SPM leaves one interval after
	// the last send.
	r.run(t, last+10*sim.Millisecond)
	if len(r.spms) != 1 || r.spms[0] != last+6*sim.Millisecond {
		t.Fatalf("tail SPM arrivals %v, want one at %v", r.spms, last+6*sim.Millisecond)
	}
}

// A silent stream's heartbeat backs off: each unanswered round doubles the
// interval up to 64x, where it stays — it never stops.
func TestSilentStreamSPMBacksOff(t *testing.T) {
	const iv = 5 * sim.Millisecond
	r := newSPMRig(t, iv)
	r.snd.Multicast("m", 64, netsim.PacketBody{})
	r.run(t, 500*sim.Millisecond)
	// ceil(log2(500/5)) + 2 = 9 rounds at most in T = 500ms.
	if n := len(r.spms); n == 0 || n > 9 {
		t.Fatalf("%d SPM rounds in 500ms of silence", n)
	}
	r.run(t, 2*sim.Second)
	want := iv + sim.Millisecond // first arrival: one interval plus the link
	for i, at := range r.spms {
		if at != want {
			t.Fatalf("SPM %d arrived at %v, want %v (all: %v)", i, at, want, r.spms)
		}
		want += iv << min(i+1, 6)
	}
	if n := len(r.spms); n < 10 {
		t.Fatalf("heartbeat stopped: %d rounds in 2s", n)
	}
	if got := r.spms[len(r.spms)-1] - r.spms[len(r.spms)-2]; got != 64*iv {
		t.Fatalf("capped interval %v, want %v", got, 64*iv)
	}
}

// A NAK says somebody is listening and short of something: the heartbeat
// returns to SPMInterval. So does a new send.
func TestNAKAndSendResetSPMBackoff(t *testing.T) {
	const iv = 5 * sim.Millisecond
	r := newSPMRig(t, iv)
	r.snd.Multicast("m", 64, netsim.PacketBody{})
	r.run(t, 400*sim.Millisecond) // backed off to 64x: next round at 635ms
	n := len(r.spms)
	r.snd.Handle(&netsim.Packet{Src: "h", Dst: "s", Kind: "pgm:nak", Body: netsim.PacketBody{StreamSeq: 1, Seq: 1}})
	r.run(t, 400*sim.Millisecond+3*iv+2*sim.Millisecond)
	if got := r.spms[n:]; len(got) != 2 || got[0] != 400*sim.Millisecond+iv+sim.Millisecond || got[1]-got[0] != 2*iv {
		t.Fatalf("after a NAK the heartbeat arrived at %v", got)
	}
	n = len(r.spms)
	at := r.loop.Now()
	r.snd.Multicast("m", 64, netsim.PacketBody{})
	r.run(t, at+iv+sim.Millisecond)
	if got := r.spms[n:]; len(got) != 1 || got[0] != at+iv+sim.Millisecond {
		t.Fatalf("after a send the heartbeat arrived at %v", got)
	}
}

// Tail loss whose first advertisement is lost too: the next (backed-off)
// round still gets through and the tail is repaired.
func TestTailLossRecoveredWhenFirstSPMLost(t *testing.T) {
	r := newSPMRig(t, 0)
	if err := r.net.SetLink("s", "h", netsim.LinkConfig{LossProb: 1}); err != nil {
		t.Fatal(err)
	}
	r.snd.Multicast("m", 64, netsim.PacketBody{})
	// The data and the SPM at 5ms are dropped; heal before the one at 15ms.
	r.loop.At(8*sim.Millisecond, "heal", func() {
		if err := r.net.SetLink("s", "h", netsim.LinkConfig{Latency: sim.Millisecond}); err != nil {
			t.Error(err)
		}
	})
	r.run(t, 30*sim.Millisecond)
	if len(r.got) != 1 || len(r.naks) != 1 {
		t.Fatalf("delivered %v after %d NAKs (SPMs %v)", r.got, len(r.naks), r.spms)
	}
	// Detected by the second round (15ms + link), NAKed one NAKDelay later.
	if want := 15*sim.Millisecond + sim.Millisecond + sim.Millisecond + sim.Millisecond; r.naks[0] != want {
		t.Fatalf("NAK reached the sender at %v, want %v", r.naks[0], want)
	}
}

// NAK retries against a source that has gone silent double from
// NAKInterval up to 64x and allocate nothing; anything heard from the
// source — here a repeated SPM — returns them to NAKInterval.
func TestNAKRetryBacksOffAgainstSilentSource(t *testing.T) {
	r := newSPMRig(t, 0)
	r.snd.Close() // a dead sender: consumes NAKs, repairs nothing
	spm := func() {
		r.rx.Handle(&netsim.Packet{Src: "s", Dst: "h", Kind: "pgm:spm", Body: netsim.PacketBody{StreamSeq: 200}})
	}
	spm()                                      // 200 missing: one burst names the lowest 64
	bursts := make([]netsim.PacketBody, 0, 64) // the recorders must not allocate either
	r.naks = make([]sim.Time, 0, 64)
	if err := r.net.Attach(&netsim.FuncNode{Addr: "s", Fn: func(p *netsim.Packet) {
		r.naks = append(r.naks, r.loop.Now())
		bursts = append(bursts, p.Body)
	}}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2*sim.Second) // warm the event and packet pools
	allocs := testing.AllocsPerRun(1, func() { r.run(t, r.loop.Now()+2*sim.Second) })
	if allocs != 0 {
		t.Fatalf("%v allocations while retrying against a silent source", allocs)
	}
	const nd, ni = sim.Millisecond, 3 * sim.Millisecond
	want := nd + sim.Millisecond
	for i, at := range r.naks {
		if at != want {
			t.Fatalf("NAK %d arrived at %v, want %v", i, at, want)
		}
		if b := bursts[i]; b.StreamSeq != 1 || b.Seq != ^uint64(0) {
			t.Fatalf("NAK %d names base %d set %x", i, b.StreamSeq, b.Seq)
		}
		want += ni << min(i, 6)
	}
	if n := len(r.naks); n < 10 || r.naks[n-1]-r.naks[n-2] != 64*ni {
		t.Fatalf("%d NAKs against a silent source, arriving at %v", n, r.naks)
	}
	// The source is heard again: the pending retry comes in to NAKInterval
	// and the doubling starts over.
	n, at := len(r.naks), r.loop.Now()
	spm()
	r.run(t, at+ni+2*ni+sim.Millisecond)
	if got := r.naks[n:]; len(got) != 2 || got[0] != at+ni+sim.Millisecond || got[1]-got[0] != ni {
		t.Fatalf("after the source was heard NAKs arrived at %v (from %v)", got, at)
	}
}

// TestReceiverDropsSequenceBeyondAnyWindow: a stream sequence is a number
// from a packet and must never size the holdback ring. One further ahead
// than any holdback could reach counts as a duplicate, marks nothing
// expected, and the stream goes on in order.
func TestReceiverDropsSequenceBeyondAnyWindow(t *testing.T) {
	loop, naks, _, members := buildGroup(t, 0, 23)
	m := members[0]
	data := func(seq uint64) *netsim.Packet {
		return &netsim.Packet{Src: "ingress", Dst: m.addr, Kind: "pgm:data", Body: netsim.PacketBody{StreamSeq: seq, StreamKind: "m", Data: seq}}
	}
	m.rx.Handle(data(1))
	m.rx.Handle(data(1 << 62))
	m.rx.Handle(data(2 + seqwin.MaxSpan))
	m.rx.Handle(data(3)) // held back behind 2
	m.rx.Handle(data(2))
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(m.got) != "[1:m:1 2:m:2 3:m:3]" {
		t.Fatalf("delivered %v", m.got)
	}
	if *naks != 0 {
		t.Fatalf("%d NAKs, want 0", *naks)
	}
}

// TestInOrderDeliveryAllocatesNothing guards the receive path every ingress
// packet and every proposal takes: an in-order body is handed to OnData by
// value and never touches the holdback window. (Taking the address of
// onData's parameter anywhere moves every body to the heap: +42 % allocations
// per simulated second on the loaded cloud.)
func TestInOrderDeliveryAllocatesNothing(t *testing.T) {
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(5).Stream("net"), netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := uint64(0)
	rx, err := NewReceiver(net, loop, ReceiverConfig{Addr: "h", OnData: func(_ netsim.Addr, seq uint64, _ string, body netsim.PacketBody) {
		if seq != delivered+1 || body.Seq != seq {
			t.Errorf("delivered seq %d carrying %d after %d", seq, body.Seq, delivered)
		}
		delivered = seq
	}})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netsim.Packet{Src: "s", Dst: "h", Kind: "pgm:data", Body: netsim.PacketBody{StreamKind: "m"}}
	next := func() {
		pkt.Body.StreamSeq++
		pkt.Body.Seq = pkt.Body.StreamSeq
		rx.Handle(pkt)
	}
	next() // the first packet creates the stream's state
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Fatalf("in-order delivery allocates %v times per packet", allocs)
	}
	if delivered < 1000 {
		t.Fatalf("delivered %d", delivered)
	}
}

// TestRepairWindowAllocatesAShareOfAChunk: the sender keeps every body for
// repair, 64 to an allocation. The window is full and the fabric's pools
// warm, so what a burst allocates beyond the ring's own growth is the
// bodies'.
func TestRepairWindowAllocatesAShareOfAChunk(t *testing.T) {
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(5).Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	group := []netsim.Addr{"h1", "h2", "h3"}
	for _, a := range group {
		if err := net.Attach(&netsim.FuncNode{Addr: a}); err != nil {
			t.Fatal(err)
		}
	}
	const burst = 256
	snd, err := NewSender(net, loop, SenderConfig{Src: "s", Group: group, WindowSize: burst})
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		for range burst {
			snd.Multicast("m", 64, netsim.PacketBody{Seq: snd.NextSeq()})
		}
		if err := loop.RunUntil(loop.Now() + 2*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1, send); allocs > 12 {
		t.Fatalf("%d multicasts made %v allocations, want <= 12", burst, allocs)
	}
	for seq := snd.NextSeq() - burst; seq < snd.NextSeq(); seq++ {
		if held := snd.win.Get(seq); held == nil || (*held).Seq != seq || (*held).StreamSeq != seq {
			t.Fatalf("window slot %d holds %v", seq, held)
		}
	}
}
