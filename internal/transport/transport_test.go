package transport

import (
	"errors"
	"fmt"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vmm"
)

// getReq is the test request descriptor.
type getReq struct {
	Bytes int
}

// tcpFileApp is a minimal guest app serving byte blobs over TCPServer.
type tcpFileApp struct {
	srv *TCPServer
}

func newTCPFileApp(t *testing.T, window int) *tcpFileApp {
	t.Helper()
	srv, err := NewTCPServer(window)
	if err != nil {
		t.Fatal(err)
	}
	a := &tcpFileApp{srv: srv}
	srv.OnRequest = func(ctx guest.Ctx, src netsim.Addr, conn, respID uint64, req any) {
		g, ok := req.(getReq)
		if !ok {
			return
		}
		ctx.Compute(30_000)
		if err := srv.Respond(ctx, src, conn, respID, g.Bytes); err != nil {
			t.Errorf("respond: %v", err)
		}
	}
	return a
}

func (a *tcpFileApp) Boot(ctx guest.Ctx) {}
func (a *tcpFileApp) OnPacket(ctx guest.Ctx, p guest.Payload) {
	a.srv.HandleSegment(ctx, p.Src, p.Data)
}
func (a *tcpFileApp) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {}
func (a *tcpFileApp) OnTimer(ctx guest.Ctx, tag string)          {}

// udpFileApp serves blobs over UDPServer.
type udpFileApp struct {
	srv *UDPServer
}

func (a *udpFileApp) Boot(ctx guest.Ctx) {}
func (a *udpFileApp) OnPacket(ctx guest.Ctx, p guest.Payload) {
	a.srv.HandleSegment(ctx, p.Src, p.Data)
}
func (a *udpFileApp) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {}
func (a *udpFileApp) OnTimer(ctx guest.Ctx, tag string)          {}

// harness wires one baseline guest serving at "svc:g" plus a client.
type harness struct {
	loop   *sim.Loop
	net    *netsim.Network
	rt     *vmm.BaselineRuntime
	client *Client
}

func newHarness(t *testing.T, app guest.App, link netsim.LinkConfig) *harness {
	t.Helper()
	loop := sim.NewLoop()
	src := sim.NewSource(99)
	net, err := netsim.New(loop, src.Stream("net"), link)
	if err != nil {
		t.Fatal(err)
	}
	host, err := vmm.NewHost("h", loop, src.Stream("host"), sim.NewClock(0, 0), vmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := vmm.NewBaselineRuntime(host, "g", app)
	if err != nil {
		t.Fatal(err)
	}
	svc := netsim.Addr("svc:g")
	rt.OnSend = vmm.SendSinkFunc(func(a guest.IOAction) {
		net.Send(&netsim.Packet{Src: svc, Dst: a.Dst, Size: a.Size, Kind: "tcpish", Payload: a.Data})
	})
	if err := net.Attach(&netsim.FuncNode{Addr: svc, Fn: func(p *netsim.Packet) {
		rt.HandleInbound(guest.Payload{Src: p.Src, Size: p.Size, Data: p.Payload})
	}}); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(net, loop, "client")
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return &harness{loop: loop, net: net, rt: rt, client: cl}
}

func TestSegCountAndSize(t *testing.T) {
	if SegCount(0) != 1 || SegCount(1) != 1 || SegCount(MSS) != 1 || SegCount(MSS+1) != 2 {
		t.Fatal("SegCount wrong")
	}
	if segSize(0, 2, MSS+100) != DataSize {
		t.Fatal("full segment size wrong")
	}
	if got := segSize(1, 2, MSS+100); got != 100+(DataSize-MSS) {
		t.Fatalf("tail segment size = %d", got)
	}
	if FlagSYN.String() != "SYN" || FlagDATA.String() != "DATA" || Flag(99).String() != "?" {
		t.Fatal("flag strings wrong")
	}
}

func TestTCPDownloadCompletes(t *testing.T) {
	h := newHarness(t, newTCPFileApp(t, 16), netsim.LinkConfig{Latency: 2 * sim.Millisecond})
	var done []Response
	conn := h.client.Connect("svc:g", nil)
	if err := h.client.Request(conn, getReq{Bytes: 100 << 10}, func(r Response) { done = append(done, r) }); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("completed %d downloads", len(done))
	}
	want := SegCount(100 << 10)
	if done[0].Segments != want {
		t.Fatalf("segments = %d, want %d", done[0].Segments, want)
	}
	if done[0].Latency <= 0 || done[0].Latency > sim.Second {
		t.Fatalf("latency %v out of range", done[0].Latency)
	}
}

func TestTCPDelayedAckCoalesces(t *testing.T) {
	h := newHarness(t, newTCPFileApp(t, 16), netsim.LinkConfig{Latency: 2 * sim.Millisecond})
	var finished bool
	conn := h.client.Connect("svc:g", nil)
	if err := h.client.Request(conn, getReq{Bytes: 1 << 20}, func(Response) { finished = true }); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("download did not finish")
	}
	segs := uint64(SegCount(1 << 20))
	sent := h.client.PacketsSent()
	// SYN + handshake ACK + REQ + data ACKs; delayed ACK should keep data
	// ACKs near segs/2.
	if sent > segs*3/4+10 {
		t.Fatalf("client sent %d packets for %d segments — delayed ACK not coalescing", sent, segs)
	}
	if sent < segs/3 {
		t.Fatalf("client sent only %d packets — ACK clocking broken?", sent)
	}
}

func TestTCPSequentialRequestsOneConnection(t *testing.T) {
	h := newHarness(t, newTCPFileApp(t, 16), netsim.LinkConfig{Latency: sim.Millisecond})
	var done []Response
	conn := h.client.Connect("svc:g", nil)
	for i := 0; i < 5; i++ {
		if err := h.client.Request(conn, getReq{Bytes: 10 << 10}, func(r Response) { done = append(done, r) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.loop.RunUntil(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(done) != 5 {
		t.Fatalf("completed %d/5 pipelined requests", len(done))
	}
}

func TestTCPRequestBeforeConnectQueues(t *testing.T) {
	h := newHarness(t, newTCPFileApp(t, 16), netsim.LinkConfig{Latency: sim.Millisecond})
	var got bool
	conn := h.client.Connect("svc:g", nil)
	// Issue immediately — handshake not yet complete.
	if err := h.client.Request(conn, getReq{Bytes: 1000}, func(Response) { got = true }); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("queued request never completed")
	}
}

func TestUDPDownload(t *testing.T) {
	app := &udpFileApp{srv: NewUDPServer()}
	app.srv.OnRequest = func(ctx guest.Ctx, src netsim.Addr, conn, respID uint64, req any) {
		g := req.(getReq)
		app.srv.Respond(ctx, src, conn, respID, g.Bytes)
	}
	h := newHarness(t, app, netsim.LinkConfig{Latency: 2 * sim.Millisecond})
	var done []Response
	conn := h.client.OpenUDP("svc:g")
	if err := h.client.Request(conn, getReq{Bytes: 100 << 10}, func(r Response) { done = append(done, r) }); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("udp downloads completed: %d", len(done))
	}
	// UDP: client sends only the request — no ACKs at all.
	if h.client.PacketsSent() != 1 {
		t.Fatalf("client sent %d packets over UDP, want 1", h.client.PacketsSent())
	}
}

func TestClientValidation(t *testing.T) {
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(1).Stream("n"), netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(nil, loop, "c"); !errors.Is(err, ErrTransport) {
		t.Fatal("nil net should fail")
	}
	if _, err := NewClient(net, loop, ""); !errors.Is(err, ErrTransport) {
		t.Fatal("empty addr should fail")
	}
	c, err := NewClient(net, loop, "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Request(999, nil, nil); !errors.Is(err, ErrTransport) {
		t.Fatal("unknown conn should fail")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewTCPServer(0); !errors.Is(err, ErrTransport) {
		t.Fatal("window 0 should fail")
	}
}

// sendLog is the slice of a guest.Ctx a server stack uses: every segment
// handed to Send is kept with the value it held then. The embedded nil Ctx
// panics on any other call.
type sendLog struct {
	guest.Ctx
	sent []*Segment
	was  []Segment
}

func (l *sendLog) Compute(int64) {}
func (l *sendLog) Send(_ netsim.Addr, _ int, data any) {
	seg := data.(*Segment)
	l.sent = append(l.sent, seg)
	l.was = append(l.was, *seg)
}

// discard is a guest.Ctx whose Send keeps nothing.
type discard struct{ guest.Ctx }

func (discard) Compute(int64)              {}
func (discard) Send(netsim.Addr, int, any) {}

func TestSegmentDigestMatchesValueFormat(t *testing.T) {
	segs := []Segment{
		{},
		{Conn: 1<<64 - 1, Flags: Flag(99), Seq: -3, Total: -1, RespID: 1 << 63},
		{Conn: 4, Flags: FlagREQ, Seq: 2, RespID: 9, Req: getReq{Bytes: 4096}},
		{Conn: 4, Flags: FlagREQ, Req: "GET /index.html"},
	}
	for f := FlagSYN; f <= FlagDATA; f++ {
		segs = append(segs, Segment{Conn: 7, Flags: f, Seq: 3, Total: 12, RespID: 11})
	}
	for _, seg := range segs {
		if got, want := string(seg.AppendDigest([]byte("x|"))), "x|"+fmt.Sprintf("%v", seg); got != want {
			t.Errorf("AppendDigest = %q, fmt prints %q", got, want)
		}
	}
}

// TestSentSegmentsAreNeverRewritten: a sent segment may be read for as long
// as a packet, a journal or a snapshot holds it, so nothing a server sends
// later — more of a response, another response on the same connection, a
// blast from another stack — may write through an earlier pointer.
func TestSentSegmentsAreNeverRewritten(t *testing.T) {
	tcp, err := NewTCPServer(4)
	if err != nil {
		t.Fatal(err)
	}
	tcp.OnRequest = func(ctx guest.Ctx, src netsim.Addr, conn, respID uint64, req any) {
		if err := tcp.Respond(ctx, src, conn, respID, req.(getReq).Bytes); err != nil {
			t.Fatal(err)
		}
	}
	udp := NewUDPServer()
	ctx := &sendLog{}
	in := func(s Segment) { tcp.HandleSegment(ctx, "client", &s) }
	in(Segment{Conn: 1, Flags: FlagSYN})
	for id, bytes := range []int{20 * MSS, 7*MSS + 5} {
		in(Segment{Conn: 1, Flags: FlagREQ, RespID: uint64(id + 1), Req: getReq{Bytes: bytes}})
		for ack := 1; ack <= SegCount(bytes); ack++ {
			in(Segment{Conn: 1, Flags: FlagACK, Seq: ack})
		}
		if err := udp.Respond(ctx, "client", 2, uint64(id+1), 3*bytes); err != nil {
			t.Fatal(err)
		}
	}
	if want := 1 + (20 + 60) + (8 + 22); len(ctx.sent) != want { // SYNACK, then TCP + UDP twice
		t.Fatalf("%d segments sent, want %d", len(ctx.sent), want)
	}
	for i, seg := range ctx.sent {
		if *seg != ctx.was[i] {
			t.Fatalf("segment %d was sent as %v and now reads %v", i, ctx.was[i], *seg)
		}
	}
}

func TestUDPRespondAllocatesAShareOfAChunk(t *testing.T) {
	srv := NewUDPServer()
	respond := func() {
		if err := srv.Respond(discard{}, "client", 1, 1, 64*MSS); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, respond); allocs > 2 {
		t.Fatalf("a 64-segment response made %v allocations, want <= 2", allocs)
	}
}

// TestDelayedAckCycleAllocatesNothing: a lone data segment in, the delayed
// ACK out when its timer fires — the steady state of a slow response.
func TestDelayedAckCycleAllocatesNothing(t *testing.T) {
	loop := sim.NewLoop()
	net, err := netsim.New(loop, sim.NewSource(1).Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(net, loop, "client")
	if err != nil {
		t.Fatal(err)
	}
	svc, cl := net.Endpoint("svc"), net.Endpoint("client")
	var data *Segment // seq 1 of a long response: seq 0 never comes, so it never ends
	if err := net.Attach(&netsim.FuncNode{Addr: "svc", Fn: func(p *netsim.Packet) {
		switch seg := p.Payload.(*Segment); seg.Flags {
		case FlagSYN:
			net.Send(net.AllocTo(svc, cl, CtrlSize, "tcpish", &Segment{Conn: seg.Conn, Flags: FlagSYNACK}))
		case FlagREQ:
			data = &Segment{Conn: seg.Conn, Flags: FlagDATA, Seq: 1, Total: 1000, RespID: seg.RespID}
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Request(c.Connect("svc", nil), getReq{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := loop.RunUntil(10 * sim.Millisecond); err != nil || data == nil {
		t.Fatalf("request never reached the server (%v)", err)
	}
	sent := c.PacketsSent()
	cycle := func() {
		net.Send(net.AllocTo(svc, cl, DataSize, "tcpish", data))
		if err := loop.RunUntil(loop.Now() + 3*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a delayed-ACK cycle made %v allocations, want 0", allocs)
	}
	if acks := c.PacketsSent() - sent; acks != 101 {
		t.Fatalf("101 lone segments drew %d ACKs, want one each", acks)
	}
}

// TestRestoreStateRejectsImpossibleResponses: a restored response must be
// one Respond and pump could have left behind, or its fields would drive
// the pump.
func TestRestoreStateRejectsImpossibleResponses(t *testing.T) {
	ok := serverResp{id: 9, conn: 3, total: SegCount(10_000), bytes: 10_000, nextSend: 5, acked: 2}
	for _, tc := range []struct {
		name string
		edit func(r *serverResp)
		ok   bool
	}{
		{"as pumped", func(*serverResp) {}, true},
		{"fully sent", func(r *serverResp) { r.nextSend, r.acked = r.total, r.total }, true},
		{"empty body", func(r *serverResp) { r.bytes, r.total, r.nextSend, r.acked = 0, 1, 0, 0 }, true},
		{"all four nonsense", func(r *serverResp) { r.total, r.bytes, r.nextSend, r.acked = -5, -100, 1<<40, -1<<40 }, false},
		{"negative bytes", func(r *serverResp) { r.bytes, r.total, r.nextSend, r.acked = -1, 1, 0, 0 }, false},
		{"total not from bytes", func(r *serverResp) { r.total++ }, false},
		{"negative acked", func(r *serverResp) { r.acked = -1 }, false},
		{"acked past sent", func(r *serverResp) { r.acked = r.nextSend + 1 }, false},
		{"sent past total", func(r *serverResp) { r.nextSend, r.acked = r.total+1, 0 }, false},
		{"conn not its key", func(r *serverResp) { r.conn++ }, false},
	} {
		r := ok
		tc.edit(&r)
		s := &TCPServer{conns: map[connKey]*serverConn{{"client", 3}: {peer: "client", resp: &r}}}
		if _, err := (&TCPServer{}).RestoreState(s.AppendState(nil)); (err == nil) != tc.ok {
			t.Errorf("%s: restore of %+v: err %v, want accepted %v", tc.name, r, err, tc.ok)
		}
	}
}
