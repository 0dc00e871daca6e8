package transport

import (
	"errors"
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
