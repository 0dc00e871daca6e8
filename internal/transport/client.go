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

	// DelayedAck is the delayed-ACK timer (classic 1-ACK-per-2-segments
	// coalescing). Zero disables delayed ACKs (ACK every segment).
	DelayedAck sim.Time
	// NACKTimeout enables UDP NACK-based repair: if a gap persists this
	// long, the client NACKs the first missing segment. Zero disables.
	NACKTimeout sim.Time
	// Retry, when positive, retransmits unanswered SYNs and REQs after this
	// interval (client-side loss recovery).
	Retry sim.Time

	conns map[uint64]*clientConn

	nextConn uint64
	nextResp uint64

	pktsSent uint64
	pktsRecv uint64
}

type clientConn struct {
	id   uint64
	dst  *netsim.Endpoint // resolved when the connection opens
	mode Flag             // FlagSYN for TCP, FlagREQ for UDP

	established bool
	onConnect   func()

	// Receive state for the current response.
	resp *clientResp

	// Delayed-ACK state. Timers are generation-checked handles: the loop
	// pools fired events, so raw *Event references must not be retained.
	unacked   int
	ackTimer  sim.Handle
	recvdHigh int // highest contiguous segment count (cumulative ack value)

	synTimer sim.Handle

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
	start sim.Time
	nack  sim.Handle
	retry sim.Handle
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
		net:        net,
		loop:       loop,
		addr:       addr,
		self:       net.Endpoint(addr),
		DelayedAck: sim.Millisecond,
		conns:      make(map[uint64]*clientConn),
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
	c.net.Send(c.net.AllocTo(c.self, dst, size, "tcpish", seg))
}

// Connect opens a TCP-like connection to dst; onConnect fires when the
// handshake completes. Returns the connection id.
func (c *Client) Connect(dst netsim.Addr, onConnect func()) uint64 {
	c.nextConn++
	conn := &clientConn{id: c.nextConn, dst: c.net.Endpoint(dst), mode: FlagSYN, onConnect: onConnect}
	c.conns[conn.id] = conn
	c.sendSYN(conn)
	return conn.id
}

func (c *Client) sendSYN(conn *clientConn) {
	c.send(conn.dst, CtrlSize, Segment{Conn: conn.id, Flags: FlagSYN})
	if c.Retry > 0 {
		conn.synTimer = c.loop.After(c.Retry, "tcp:syn-retry", func() {
			if !conn.established {
				c.sendSYN(conn)
			}
		}).Handle()
	}
}

// OpenUDP creates a UDP-like "connection" (no handshake). Returns its id.
func (c *Client) OpenUDP(dst netsim.Addr) uint64 {
	c.nextConn++
	conn := &clientConn{id: c.nextConn, dst: c.net.Endpoint(dst), mode: FlagREQ, established: true}
	c.conns[conn.id] = conn
	return conn.id
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
	conn.resp = &clientResp{pendingReq: p, got: make(map[int]bool), start: c.loop.Now()}
	// A REQ piggybacks the cumulative ACK (cancels any pending delayed ACK).
	if conn.ackTimer.Pending() {
		c.loop.CancelHandle(conn.ackTimer)
		conn.ackTimer = sim.Handle{}
		conn.unacked = 0
	}
	c.sendREQ(conn)
}

func (c *Client) sendREQ(conn *clientConn) {
	r := conn.resp
	if r == nil {
		return
	}
	c.send(conn.dst, ReqSize, Segment{
		Conn: conn.id, Flags: FlagREQ, Seq: conn.recvdHigh, RespID: r.respID, Req: r.req,
	})
	if c.Retry > 0 {
		r.retry = c.loop.After(c.Retry, "tcp:req-retry", func() {
			r.retry = sim.Handle{}
			// Retry only while no data for this response has arrived.
			if conn.resp == r && len(r.got) == 0 {
				c.sendREQ(conn)
			}
		}).Handle()
	}
}

func (c *Client) deliver(pkt *netsim.Packet) {
	seg, ok := pkt.Payload.(Segment)
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
		c.loop.CancelHandle(conn.synTimer)
		conn.synTimer = sim.Handle{}
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

func (c *Client) onData(conn *clientConn, seg Segment) {
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
	if !r.got[seg.Seq] {
		r.got[seg.Seq] = true
	}
	// Advance the cumulative counter.
	contig := 0
	for r.got[contig] {
		contig++
	}
	conn.recvdHigh = contig

	if conn.mode == FlagSYN {
		c.maybeAck(conn)
	} else if c.NACKTimeout > 0 {
		c.armNack(conn, r)
	}

	if len(r.got) >= r.total {
		c.finish(conn, r)
	}
}

func (c *Client) finish(conn *clientConn, r *clientResp) {
	c.loop.CancelHandle(r.nack)
	c.loop.CancelHandle(r.retry)
	// Flush any pending delayed ACK so the server's window closes cleanly.
	if conn.mode == FlagSYN && conn.unacked > 0 {
		c.ackNow(conn)
	}
	conn.resp = nil
	conn.recvdHigh = 0
	resp := Response{
		RespID:   r.respID,
		Latency:  c.loop.Now() - r.sentAt,
		Segments: r.total,
		Bytes:    r.total * MSS,
	}
	if r.onDone != nil {
		r.onDone(resp)
	}
	c.drainQueue(conn)
}

// maybeAck implements delayed ACK: every second segment is acked
// immediately; a lone segment is acked when the timer fires.
func (c *Client) maybeAck(conn *clientConn) {
	conn.unacked++
	if conn.unacked >= 2 || c.DelayedAck == 0 {
		c.ackNow(conn)
		return
	}
	if !conn.ackTimer.Pending() {
		conn.ackTimer = c.loop.After(c.DelayedAck, "tcp:delack", func() {
			conn.ackTimer = sim.Handle{}
			if conn.unacked > 0 {
				c.ackNow(conn)
			}
		}).Handle()
	}
}

func (c *Client) ackNow(conn *clientConn) {
	conn.unacked = 0
	c.loop.CancelHandle(conn.ackTimer)
	conn.ackTimer = sim.Handle{}
	c.send(conn.dst, CtrlSize, Segment{Conn: conn.id, Flags: FlagACK, Seq: conn.recvdHigh})
}

// armNack schedules a NACK for the first missing segment if the gap
// persists (UDP NACK-repair mode).
func (c *Client) armNack(conn *clientConn, r *clientResp) {
	if r.nack.Pending() {
		return
	}
	r.nack = c.loop.After(c.NACKTimeout, "udp:nack", func() {
		r.nack = sim.Handle{}
		if conn.resp != r || len(r.got) >= r.total {
			return
		}
		missing := 0
		for r.got[missing] {
			missing++
		}
		c.send(conn.dst, CtrlSize, Segment{Conn: conn.id, Flags: FlagNACK, Seq: missing})
		c.armNack(conn, r)
	}).Handle()
}
