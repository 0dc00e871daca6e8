package transport

import (
	"cmp"
	"fmt"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// Server is what a guest app holds of its transport stack, stream or
// datagram: segments go in (true when they were the stack's), a response goes
// out to the src, conn and respID OnRequest was handed, and the mutable state
// rides in the app's snapshot. A stack hands requests to its OnRequest field,
// which the app sets before wrapping it. Neither stack arms a timer.
type Server interface {
	HandleSegment(ctx guest.Ctx, src netsim.Addr, data any) bool
	Respond(ctx guest.Ctx, peer netsim.Addr, conn, respID uint64, respBytes int) error
	AppendState(buf []byte) []byte
	RestoreState(data []byte) ([]byte, error)
}

var _, _ Server = (*TCPServer)(nil), (*UDPServer)(nil)

// TCPServer is the guest-side stream stack: it answers handshakes, hands
// requests to the application, and streams window-limited responses that
// advance on cumulative ACKs. It is purely deterministic guest state.
type TCPServer struct {
	// Window is the number of unacknowledged segments allowed in flight.
	Window int
	// OnRequest receives client requests. The app eventually calls Respond
	// (possibly after disk I/O) with the same conn and respID.
	OnRequest func(ctx guest.Ctx, src netsim.Addr, conn uint64, respID uint64, req any)
	// SegmentCompute is the branch cost the guest pays per data segment
	// sent (packetization, copies).
	SegmentCompute int64

	conns map[connKey]*serverConn
	segs  sim.Chunk[Segment] // what every sent segment is carved from
}

// connKey names a connection at a server. Ids are client-chosen and every
// Client counts from 1, so an id means something only together with the
// peer that chose it.
type connKey struct {
	peer netsim.Addr
	id   uint64
}

// compare orders keys by (id, peer): the order snapshots are written in,
// which for a single peer is the id order it always was.
func (k connKey) compare(o connKey) int {
	return cmp.Or(cmp.Compare(k.id, o.id), cmp.Compare(k.peer, o.peer))
}

type serverConn struct {
	peer netsim.Addr
	resp *serverResp
}

type serverResp struct {
	id       uint64
	conn     uint64
	total    int
	bytes    int
	nextSend int // next segment index to transmit
	acked    int // cumulative acked segments
}

// NewTCPServer returns a server stack with the given window.
func NewTCPServer(window int) (*TCPServer, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: window %d", ErrTransport, window)
	}
	return &TCPServer{
		Window:         window,
		SegmentCompute: 20_000,
		conns:          make(map[connKey]*serverConn),
	}, nil
}

// HandleSegment processes an inbound transport payload inside the guest.
// It returns true when the payload was a transport segment.
func (s *TCPServer) HandleSegment(ctx guest.Ctx, src netsim.Addr, data any) bool {
	seg, ok := data.(*Segment)
	if !ok {
		return false
	}
	key := connKey{src, seg.Conn}
	switch seg.Flags {
	case FlagSYN:
		s.conns[key] = &serverConn{peer: src}
		ctx.Compute(5_000)
		ctx.Send(src, CtrlSize, s.segs.New(Segment{Conn: seg.Conn, Flags: FlagSYNACK}))
	case FlagACK:
		s.onAck(ctx, key, seg.Seq)
	case FlagREQ:
		c, ok := s.conns[key]
		if !ok {
			// Implicit connection (UDP-style request on a stream server).
			c = &serverConn{peer: src}
			s.conns[key] = c
		}
		// A REQ carries a cumulative ACK too (piggybacking).
		s.onAck(ctx, key, seg.Seq)
		ctx.Compute(10_000)
		if s.OnRequest != nil {
			s.OnRequest(ctx, c.peer, seg.Conn, seg.RespID, seg.Req)
		}
	}
	return true
}

// Respond begins streaming a response of respBytes to the request's
// connection: the src and conn OnRequest was handed. Call from app code
// (e.g. after disk reads complete).
func (s *TCPServer) Respond(ctx guest.Ctx, peer netsim.Addr, conn uint64, respID uint64, respBytes int) error {
	c, ok := s.conns[connKey{peer, conn}]
	if !ok {
		return fmt.Errorf("%w: respond on unknown conn %d of %s", ErrTransport, conn, peer)
	}
	c.resp = &serverResp{
		id:    respID,
		conn:  conn,
		total: SegCount(respBytes),
		bytes: respBytes,
	}
	s.pump(ctx, c)
	return nil
}

// pump transmits segments up to the window.
func (s *TCPServer) pump(ctx guest.Ctx, c *serverConn) {
	r := c.resp
	if r == nil {
		return
	}
	for r.nextSend < r.total && r.nextSend-r.acked < s.Window {
		ctx.Compute(s.SegmentCompute)
		ctx.Send(c.peer, segSize(r.nextSend, r.total, r.bytes), s.segs.New(Segment{
			Conn: r.conn, Flags: FlagDATA, Seq: r.nextSend, Total: r.total, RespID: r.id,
		}))
		r.nextSend++
	}
	if r.acked >= r.total {
		c.resp = nil
	}
}

// onAck advances the window to the cumulative ack.
func (s *TCPServer) onAck(ctx guest.Ctx, key connKey, ack int) {
	c, ok := s.conns[key]
	if !ok || c.resp == nil {
		return
	}
	r := c.resp
	if ack > r.acked {
		r.acked = ack
	}
	s.pump(ctx, c)
}

// UDPServer blasts responses with no acknowledgments. It keeps no protocol
// state: a request in, every segment of its response out.
type UDPServer struct {
	// SegmentCompute is the branch cost per data segment sent.
	SegmentCompute int64
	// OnRequest receives client requests.
	OnRequest func(ctx guest.Ctx, src netsim.Addr, conn uint64, respID uint64, req any)
	segs      sim.Chunk[Segment] // what every sent segment is carved from
}

// NewUDPServer returns a datagram server stack.
func NewUDPServer() *UDPServer {
	return &UDPServer{SegmentCompute: 20_000}
}

// HandleSegment processes an inbound payload; true when consumed.
func (s *UDPServer) HandleSegment(ctx guest.Ctx, src netsim.Addr, data any) bool {
	seg, ok := data.(*Segment)
	if !ok {
		return false
	}
	if seg.Flags == FlagREQ {
		ctx.Compute(10_000)
		if s.OnRequest != nil {
			s.OnRequest(ctx, src, seg.Conn, seg.RespID, seg.Req)
		}
	}
	return true
}

// Respond blasts all segments of the response immediately.
func (s *UDPServer) Respond(ctx guest.Ctx, dst netsim.Addr, conn uint64, respID uint64, respBytes int) error {
	total := SegCount(respBytes)
	for i := 0; i < total; i++ {
		ctx.Compute(s.SegmentCompute)
		ctx.Send(dst, segSize(i, total, respBytes), s.segs.New(Segment{
			Conn: conn, Flags: FlagDATA, Seq: i, Total: total, RespID: respID,
		}))
	}
	return nil
}
