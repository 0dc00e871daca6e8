package transport

import (
	"math/rand"
	"testing"
	"time"

	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// ackRig is a Client whose peer "svc" records every segment the client
// sends; the test hands segments to the client's deliver directly, in
// whatever order it likes, and notes what each send must carry.
type ackRig struct {
	t    *testing.T
	loop *sim.Loop
	c    *Client
	sent []Segment // arrived at svc, in send order (one link, no jitter)
	want []int     // the Seq each send must carry, in send order
}

func newAckRig(t *testing.T) *ackRig {
	t.Helper()
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(1).Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(net, loop, "client")
	if err != nil {
		t.Fatal(err)
	}
	r := &ackRig{t: t, loop: loop, c: c}
	if err := net.Attach(&netsim.FuncNode{Addr: "svc", Fn: func(p *netsim.Packet) {
		r.sent = append(r.sent, *p.Payload.(*Segment))
	}}); err != nil {
		t.Fatal(err)
	}
	return r
}

// sends runs f and records that whatever the client sent meanwhile carries
// seq.
func (r *ackRig) sends(seq int, f func()) {
	sent0 := r.c.PacketsSent()
	f()
	for n := sent0; n < r.c.PacketsSent(); n++ {
		r.want = append(r.want, seq)
	}
}

// deliver hands seg to the client; what it sends in reply carries seq.
func (r *ackRig) deliver(seg Segment, seq int) {
	r.sends(seq, func() { r.c.deliver(&netsim.Packet{Payload: &seg}) })
}

// settle runs the loop dry, firing any delayed ACK (which carries seq), and
// returns what the client sent since the last settle, each segment checked
// against the Seq noted for it.
func (r *ackRig) settle(seq int) []Segment {
	r.t.Helper()
	r.sends(seq, func() {
		if err := r.loop.Run(); err != nil {
			r.t.Fatal(err)
		}
	})
	out := r.sent
	if len(out) != len(r.want) {
		r.t.Fatalf("%d segments arrived for %d sends", len(out), len(r.want))
	}
	for i, s := range out {
		if s.Seq != r.want[i] {
			r.t.Fatalf("client sent %v Seq %d, reference %d", s.Flags, s.Seq, r.want[i])
		}
	}
	r.sent, r.want = nil, nil
	return out
}

// refContig is the cumulative ack as the client once computed it on every
// data segment: the contiguous prefix counted from segment 0.
func refContig(got map[int]bool) int {
	n := 0
	for got[n] {
		n++
	}
	return n
}

// TestCumulativeAckMatchesWalkFromZero holds the client's cumulative ack,
// which resumes from where the last data segment left it, to the walk from
// segment 0. Responses of random length arrive in seeded random orders with
// duplicates, with stale segments of the previous response and of one never
// asked for mixed in, and duplicates after completion; the loop runs (and
// delayed ACKs fire) after a random half of the segments. Every ACK and REQ
// carries the reference's count (0 once a response completed), and each
// response completes exactly once, on the segment that makes it whole. TCP
// and UDP connections both run.
func TestCumulativeAckMatchesWalkFromZero(t *testing.T) {
	for _, mode := range []Flag{FlagSYN, FlagREQ} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := newAckRig(t)
			var conn uint64
			if mode == FlagSYN {
				r.sends(0, func() { conn = r.c.Connect("svc", nil) })
				r.deliver(Segment{Conn: conn, Flags: FlagSYNACK}, 0)
				if sent := r.settle(0); len(sent) != 2 || sent[0].Flags != FlagSYN || sent[1].Flags != FlagACK {
					t.Fatalf("the handshake sent %v", sent)
				}
			} else {
				conn = r.c.OpenUDP("svc")
			}
			var prev uint64
			for k := 0; k < 8; k++ {
				done := 0
				r.sends(0, func() {
					if err := r.c.Request(conn, nil, func(Response) { done++ }); err != nil {
						t.Fatal(err)
					}
				})
				sent := r.settle(0)
				if len(sent) != 1 || sent[0].Flags != FlagREQ {
					t.Fatalf("%v seed %d: request %d sent %v", mode, seed, k, sent)
				}
				id := sent[0].RespID
				total := 1 + rng.Intn(300)
				order := rng.Perm(total)
				for i := total / 4; i > 0; i-- { // duplicates, anywhere
					order = append(order, rng.Intn(total))
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				got := map[int]bool{}
				ref := func() int { // the model: nothing to ack once the response completed
					if len(got) == total {
						return 0
					}
					return refContig(got)
				}
				for _, seq := range order {
					if rng.Intn(8) == 0 {
						stale := []uint64{prev, id + 1000}[rng.Intn(2)]
						r.deliver(Segment{Conn: conn, Flags: FlagDATA, Seq: rng.Intn(total), Total: total, RespID: stale}, ref())
					}
					if len(got) == total {
						r.deliver(Segment{Conn: conn, Flags: FlagDATA, Seq: seq, Total: total, RespID: id}, 0)
					} else {
						got[seq] = true
						// The segment that completes the response is acked at total.
						r.deliver(Segment{Conn: conn, Flags: FlagDATA, Seq: seq, Total: total, RespID: id}, refContig(got))
					}
					if whole := len(got) == total; whole != (done == 1) || done > 1 {
						t.Fatalf("%v seed %d: response %d completed %d times with %d of %d segments in", mode, seed, k, done, len(got), total)
					}
					if rng.Intn(2) == 0 {
						r.settle(ref())
					}
				}
				r.settle(ref())
				if done != 1 {
					t.Fatalf("%v seed %d: response %d completed %d times", mode, seed, k, done)
				}
				prev = id
			}
		}
	}
}

// TestLongResponseAckIsLinear: one in-order response of 50,000 segments. A
// walk from segment 0 on every segment makes about 1.25e9 map probes; the
// resumed walk makes one or two per segment, milliseconds in all.
func TestLongResponseAckIsLinear(t *testing.T) {
	const total = 50_000
	r := newAckRig(t)
	conn := r.c.OpenUDP("svc")
	done := 0
	r.sends(0, func() {
		if err := r.c.Request(conn, nil, func(Response) { done++ }); err != nil {
			t.Fatal(err)
		}
	})
	id := r.settle(0)[0].RespID
	segs := make([]Segment, total)
	for seq := range segs {
		segs[seq] = Segment{Conn: conn, Flags: FlagDATA, Seq: seq, Total: total, RespID: id}
	}
	start := time.Now()
	for seq := range segs {
		r.c.deliver(&netsim.Packet{Payload: &segs[seq]})
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("%d in-order segments took %v", total, el)
	}
	if done != 1 {
		t.Fatalf("the response completed %d times", done)
	}
}
