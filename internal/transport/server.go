package transport

import (
	"cmp"
	"fmt"
	"strings"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/vtime"
)

// Server is what a guest app holds of its transport stack, stream or
// datagram: segments and timers go in (true when they were the stack's), a
// response goes out to the src, conn and respID OnRequest was handed, and the
// mutable state rides in the app's snapshot. A stack hands requests to its
// OnRequest field, which the app sets before wrapping it.
type Server interface {
	HandleSegment(ctx guest.Ctx, src netsim.Addr, data any) bool
	Respond(ctx guest.Ctx, peer netsim.Addr, conn, respID uint64, respBytes int) error
	HandleTimer(ctx guest.Ctx, tag string) bool
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
	// RTO, when positive, retransmits the lowest unacked segment if no ACK
	// progress is observed for that long (guest virtual time).
	RTO vtime.Virtual
	// OnRequest receives client requests. The app eventually calls Respond
	// (possibly after disk I/O) with the same conn and respID.
	OnRequest func(ctx guest.Ctx, src netsim.Addr, conn uint64, respID uint64, req any)
	// SegmentCompute is the branch cost the guest pays per data segment
	// sent (packetization, copies).
	SegmentCompute int64

	conns map[connKey]*serverConn
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
	rtoArmed bool
	rtoEpoch int // distinguishes stale RTO timers
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
	seg, ok := data.(Segment)
	if !ok {
		return false
	}
	key := connKey{src, seg.Conn}
	switch seg.Flags {
	case FlagSYN:
		s.conns[key] = &serverConn{peer: src}
		ctx.Compute(5_000)
		ctx.Send(src, CtrlSize, Segment{Conn: seg.Conn, Flags: FlagSYNACK})
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
		ctx.Send(c.peer, segSize(r.nextSend, r.total, r.bytes), Segment{
			Conn: r.conn, Flags: FlagDATA, Seq: r.nextSend, Total: r.total, RespID: r.id,
		})
		r.nextSend++
	}
	if s.RTO > 0 && r.acked < r.total && !r.rtoArmed {
		r.rtoArmed = true
		epoch := r.rtoEpoch
		ctx.SetTimer(s.RTO, rtoTag(connKey{c.peer, r.conn}, epoch))
	}
	if r.acked >= r.total {
		c.resp = nil
	}
}

// rtoTag names a connection's RTO timer. The peer goes last: it is the one
// field that may hold a colon.
func rtoTag(k connKey, epoch int) string {
	return fmt.Sprintf("tcp-rto:%d:%d:%s", k.id, epoch, k.peer)
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
		r.rtoEpoch++ // progress: stale RTOs are ignored
		r.rtoArmed = false
	}
	s.pump(ctx, c)
}

// HandleTimer processes RTO expirations; wire it from App.OnTimer. Returns
// true when the tag belonged to this stack.
func (s *TCPServer) HandleTimer(ctx guest.Ctx, tag string) bool {
	var id uint64
	var epoch int
	if _, err := fmt.Sscanf(tag, "tcp-rto:%d:%d:", &id, &epoch); err != nil {
		return false
	}
	// The peer is whatever follows the third colon, spaces and colons too.
	c, ok := s.conns[connKey{netsim.Addr(strings.SplitN(tag, ":", 4)[3]), id}]
	if !ok || c.resp == nil {
		return true
	}
	r := c.resp
	if epoch != r.rtoEpoch || r.acked >= r.total {
		return true // stale
	}
	// Retransmit the lowest unacked segment and re-arm.
	ctx.Compute(s.SegmentCompute)
	ctx.Send(c.peer, segSize(r.acked, r.total, r.bytes), Segment{
		Conn: r.conn, Flags: FlagDATA, Seq: r.acked, Total: r.total, RespID: r.id,
	})
	ctx.SetTimer(s.RTO, tag)
	return true
}

// UDPServer blasts responses with no acknowledgments; an optional NACK
// listener retransmits missing segments (the PGM-style adapted service).
type UDPServer struct {
	// SegmentCompute is the branch cost per data segment sent.
	SegmentCompute int64
	// OnRequest receives client requests.
	OnRequest func(ctx guest.Ctx, src netsim.Addr, conn uint64, respID uint64, req any)

	// sent remembers responses for NACK repair: conn → last response.
	sent map[connKey]*udpResp
}

type udpResp struct {
	peer  netsim.Addr
	id    uint64
	total int
	bytes int
}

// NewUDPServer returns a datagram server stack.
func NewUDPServer() *UDPServer {
	return &UDPServer{SegmentCompute: 20_000, sent: make(map[connKey]*udpResp)}
}

// HandleSegment processes an inbound payload; true when consumed.
func (s *UDPServer) HandleSegment(ctx guest.Ctx, src netsim.Addr, data any) bool {
	seg, ok := data.(Segment)
	if !ok {
		return false
	}
	switch seg.Flags {
	case FlagREQ:
		ctx.Compute(10_000)
		if s.OnRequest != nil {
			s.OnRequest(ctx, src, seg.Conn, seg.RespID, seg.Req)
		}
	case FlagNACK:
		r, ok := s.sent[connKey{src, seg.Conn}]
		if !ok {
			return true
		}
		ctx.Compute(s.SegmentCompute)
		ctx.Send(r.peer, segSize(seg.Seq, r.total, r.bytes), Segment{
			Conn: seg.Conn, Flags: FlagDATA, Seq: seg.Seq, Total: r.total, RespID: r.id,
		})
	}
	return true
}

// HandleTimer implements Server: a datagram stack arms no timers.
func (s *UDPServer) HandleTimer(guest.Ctx, string) bool { return false }

// Respond blasts all segments of the response immediately.
func (s *UDPServer) Respond(ctx guest.Ctx, dst netsim.Addr, conn uint64, respID uint64, respBytes int) error {
	total := SegCount(respBytes)
	s.sent[connKey{dst, conn}] = &udpResp{peer: dst, id: respID, total: total, bytes: respBytes}
	for i := 0; i < total; i++ {
		ctx.Compute(s.SegmentCompute)
		ctx.Send(dst, segSize(i, total, respBytes), Segment{
			Conn: conn, Flags: FlagDATA, Seq: i, Total: total, RespID: respID,
		})
	}
	return nil
}
