package transport

import (
	"fmt"

	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// Client is a fabric endpoint that talks to cloud guests over the TCP-like
// or UDP-like transport. One Client multiplexes any number of logical
// connections; it counts every packet it sends and receives, which is how
// the Fig-6(b) packets-per-operation series is measured.
type Client struct {
	net  *netsim.Network
	loop *sim.Loop
	addr netsim.Addr
	self *netsim.Endpoint // addr, resolved once

	conns map[uint64]*clientConn

	nextConn uint64
	nextResp uint64

	pktsSent uint64
	pktsRecv uint64
	segs     sim.Chunk[Segment] // what every sent segment is carved from
}

type clientConn struct {
	id   uint64
	dst  *netsim.Endpoint // resolved when the connection opens
	mode Flag             // FlagSYN for TCP, FlagREQ for UDP

	established bool
	onConnect   func()

	// Receive state for the current response: &rx (reused), nil when idle.
	resp *clientResp
	rx   clientResp

	// Delayed-ACK state. Timers are generation-checked handles: the loop
	// pools fired events, so raw *Event references must not be retained.
	unacked   int
	ackTimer  sim.Handle
	recvdHigh int // highest contiguous segment count (cumulative ack value)

	// Request queue: requests issued before connect completes.
	queued []pendingReq
}

type pendingReq struct {
	respID uint64
	req    any
	onDone func(r Response)
	sentAt sim.Time
}

type clientResp struct {
	pendingReq
	total int
	got   map[int]bool
}

// Response reports a completed request.
type Response struct {
	RespID   uint64
	Latency  sim.Time
	Segments int
	Bytes    int
}

// NewClient creates a client endpoint and attaches it to the fabric.
func NewClient(net *netsim.Network, loop *sim.Loop, addr netsim.Addr) (*Client, error) {
	if net == nil || loop == nil || addr == "" {
		return nil, fmt.Errorf("%w: client needs net, loop, addr", ErrTransport)
	}
	c := &Client{
		net:   net,
		loop:  loop,
		addr:  addr,
		self:  net.Endpoint(addr),
		conns: make(map[uint64]*clientConn),
	}
	if err := net.Attach(&netsim.FuncNode{Addr: addr, Fn: c.deliver}); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the client's fabric address.
func (c *Client) Addr() netsim.Addr { return c.addr }

// PacketsSent and PacketsReceived report the client-side wire counters.
func (c *Client) PacketsSent() uint64 { return c.pktsSent }

// PacketsReceived reports packets delivered to this client.
func (c *Client) PacketsReceived() uint64 { return c.pktsRecv }

func (c *Client) send(dst *netsim.Endpoint, size int, seg Segment) {
	c.pktsSent++
	c.net.Send(c.net.AllocTo(c.self, dst, size, "tcpish", c.segs.New(seg)))
}

// Connect opens a TCP-like connection to dst; onConnect fires when the
// handshake completes. Returns the connection id.
func (c *Client) Connect(dst netsim.Addr, onConnect func()) uint64 {
	conn := c.open(dst, FlagSYN)
	conn.onConnect = onConnect
	c.send(conn.dst, CtrlSize, Segment{Conn: conn.id, Flags: FlagSYN})
	return conn.id
}

// OpenUDP creates a UDP-like "connection" (no handshake). Returns its id.
func (c *Client) OpenUDP(dst netsim.Addr) uint64 { return c.open(dst, FlagREQ).id }

func (c *Client) open(dst netsim.Addr, mode Flag) *clientConn {
	c.nextConn++
	conn := &clientConn{id: c.nextConn, dst: c.net.Endpoint(dst), mode: mode, established: mode == FlagREQ}
	conn.rx.got = map[int]bool{}
	c.conns[conn.id] = conn
	return conn
}

// Request issues a request on the connection; onDone fires when the full
// response arrived. Requests on a connecting TCP conn are queued until the
// handshake completes. One request is outstanding per connection at a time;
// additional requests queue behind it.
func (c *Client) Request(connID uint64, req any, onDone func(r Response)) error {
	conn, ok := c.conns[connID]
	if !ok {
		return fmt.Errorf("%w: unknown conn %d", ErrTransport, connID)
	}
	c.nextResp++
	p := pendingReq{respID: c.nextResp, req: req, onDone: onDone, sentAt: c.loop.Now()}
	if !conn.established || conn.resp != nil {
		conn.queued = append(conn.queued, p)
		return nil
	}
	c.issue(conn, p)
	return nil
}

func (c *Client) issue(conn *clientConn, p pendingReq) {
	p.sentAt = c.loop.Now()
	clear(conn.rx.got)
	conn.rx.pendingReq, conn.rx.total = p, 0
	conn.resp = &conn.rx
	// A REQ piggybacks the cumulative ACK. No delayed ACK is pending here:
	// finish flushed the last response's before the connection went idle.
	c.send(conn.dst, ReqSize, Segment{
		Conn: conn.id, Flags: FlagREQ, Seq: conn.recvdHigh, RespID: p.respID, Req: p.req,
	})
}

func (c *Client) deliver(pkt *netsim.Packet) {
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	c.pktsRecv++
	conn, ok := c.conns[seg.Conn]
	if !ok {
		return
	}
	switch seg.Flags {
	case FlagSYNACK:
		if conn.established {
			return
		}
		conn.established = true
		c.send(conn.dst, CtrlSize, Segment{Conn: conn.id, Flags: FlagACK, Seq: 0})
		if conn.onConnect != nil {
			conn.onConnect()
		}
		c.drainQueue(conn)
	case FlagDATA:
		c.onData(conn, seg)
	}
}

func (c *Client) drainQueue(conn *clientConn) {
	if conn.resp != nil || len(conn.queued) == 0 {
		return
	}
	p := conn.queued[0]
	conn.queued = conn.queued[1:]
	c.issue(conn, p)
}

func (c *Client) onData(conn *clientConn, seg *Segment) {
	r := conn.resp
	if r == nil || seg.RespID != r.respID {
		// Stale/duplicate data from an old response: ACK to keep the server
		// window moving, then drop.
		if conn.mode == FlagSYN {
			c.ackNow(conn)
		}
		return
	}
	r.total = seg.Total
	r.got[seg.Seq] = true
	// Advance the cumulative counter.
	contig := 0
	for r.got[contig] {
		contig++
	}
	conn.recvdHigh = contig

	if conn.mode == FlagSYN {
		c.maybeAck(conn)
	}

	if len(r.got) >= r.total {
		c.finish(conn, r)
	}
}

func (c *Client) finish(conn *clientConn, r *clientResp) {
	// Flush any pending delayed ACK so the server's window closes cleanly.
	if conn.mode == FlagSYN && conn.unacked > 0 {
		c.ackNow(conn)
	}
	conn.resp = nil
	conn.recvdHigh = 0
	if r.onDone != nil {
		r.onDone(Response{RespID: r.respID, Latency: c.loop.Now() - r.sentAt, Segments: r.total, Bytes: r.total * MSS})
	}
	c.drainQueue(conn)
}

// delayedAck is how long a lone segment waits for its ACK (classic
// 1-ACK-per-2-segments coalescing).
const delayedAck = sim.Millisecond

// maybeAck implements delayed ACK: every second segment is acked
// immediately; a lone segment is acked when the timer fires.
func (c *Client) maybeAck(conn *clientConn) {
	conn.unacked++
	if conn.unacked >= 2 {
		c.ackNow(conn)
		return
	}
	if !conn.ackTimer.Pending() {
		conn.ackTimer = c.loop.AfterTimer(delayedAck, "tcp:delack", delackTimer, c, conn, 0).Handle()
	}
}

// delackTimer acks a lone segment whose partner never came.
func delackTimer(a, b any, _ uint64) {
	c, conn := a.(*Client), b.(*clientConn)
	conn.ackTimer = sim.Handle{}
	if conn.unacked > 0 {
		c.ackNow(conn)
	}
}

func (c *Client) ackNow(conn *clientConn) {
	conn.unacked = 0
	c.loop.CancelHandle(conn.ackTimer)
	conn.ackTimer = sim.Handle{}
	c.send(conn.dst, CtrlSize, Segment{Conn: conn.id, Flags: FlagACK, Seq: conn.recvdHigh})
}
