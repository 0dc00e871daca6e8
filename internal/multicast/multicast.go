// Package multicast implements a NAK-based reliable multicast in the style
// of PGM/OpenPGM (RFC 3208), which StopWatch uses to replicate inbound guest
// packets from the ingress node to the replica hosts (Sec. VII-A).
//
// Reliability is receiver-driven: receivers detect sequence gaps and send
// NAKs; the sender retransmits from its window. Trailing losses are found
// through the sender's Source Path Message, which advertises the stream's
// highest sequence: sent only once the stream has been quiet for
// SPMInterval (data is its own advertisement), at a doubling interval while
// nobody answers. Delivery to the application is in sequence order.
package multicast

import (
	"errors"
	"fmt"
	"slices"

	"stopwatch/internal/netsim"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
)

// ErrMulticast reports configuration errors.
var ErrMulticast = errors.New("multicast: invalid configuration")

// Wire kinds used on the fabric.
const (
	kindData = "pgm:data"
	kindNAK  = "pgm:nak"
	kindSPM  = "pgm:spm"
)

// maxBackoff caps the doubling of unanswered heartbeat and NAK-retry
// intervals at 1<<maxBackoff times their base.
const maxBackoff = 6

// SenderConfig parameterizes a multicast source.
type SenderConfig struct {
	// Src is the sender's fabric address.
	Src netsim.Addr
	// Group lists receiver addresses.
	Group []netsim.Addr
	// SPMInterval is how long after the last send, repair request or
	// heartbeat the next heartbeat leaves (default 5ms), doubling with every
	// round nothing answers up to 64x.
	SPMInterval sim.Time
	// WindowSize bounds retained messages for retransmission (default 4096).
	WindowSize int
}

// Sender is a reliable multicast source.
type Sender struct {
	net  *netsim.Network
	loop *sim.Loop
	cfg  SenderConfig
	// src and group are cfg.Src and cfg.Group resolved (again in SetGroup).
	src   *netsim.Endpoint
	group []*netsim.Endpoint
	seq   uint64
	// win retains the last WindowSize bodies, envelope stamped and carved
	// from bodies, for repair: every sequence from Base to the last is open.
	win    bodyWindow
	bodies sim.Chunk[netsim.PacketBody]

	spm    sim.Handle // the pending heartbeat
	idle   uint8      // heartbeats since the last send or NAK, capped
	closed bool
}

// NewSender creates a multicast source.
func NewSender(net *netsim.Network, loop *sim.Loop, cfg SenderConfig) (*Sender, error) {
	if net == nil || loop == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrMulticast)
	}
	if cfg.Src == "" || len(cfg.Group) == 0 {
		return nil, fmt.Errorf("%w: sender needs src and group", ErrMulticast)
	}
	if cfg.SPMInterval == 0 {
		cfg.SPMInterval = 5 * sim.Millisecond
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 4096
	}
	cfg.WindowSize = min(cfg.WindowSize, seqwin.MaxSpan)
	// win allocates on the first Multicast: senders are wired per guest
	// under churn, often before any traffic exists.
	s := &Sender{
		net:  net,
		loop: loop,
		cfg:  cfg,
		src:  net.Endpoint(cfg.Src),
		win:  seqwin.New[*netsim.PacketBody](1),
	}
	return s, s.SetGroup(cfg.Group)
}

var _ netsim.Node = (*Sender)(nil)

// Address implements netsim.Node: the sender's stream source address, where
// receivers direct their NAKs.
func (s *Sender) Address() netsim.Addr { return s.cfg.Src }

// Deliver implements netsim.Node, consuming NAKs — attaching the sender
// itself avoids a per-stream adapter node on the fabric.
func (s *Sender) Deliver(pkt *netsim.Packet) { s.Handle(pkt) }

// Multicast sends (kind, body) of the given wire size to every group
// member reliably, returning the assigned sequence number. The body is the
// typed packet union; the multicast envelope (stream seq + inner kind) is
// stamped into its StreamSeq/StreamKind fields, so the fan-out packets
// carry everything inline — no boxing per message. On a closed sender
// nothing is sent and 0 is returned (sequence numbers start at 1, so 0 is
// unambiguous).
func (s *Sender) Multicast(kind string, size int, body netsim.PacketBody) uint64 {
	if s.closed {
		return 0
	}
	s.seq++
	body.StreamSeq = s.seq
	body.StreamKind = kind
	if s.win.Len() == s.cfg.WindowSize {
		// Age out the oldest before the ring would grow.
		*s.win.Get(s.win.Base()) = nil
		s.win.Retire(s.win.Base())
	}
	held, _ := s.win.Open(s.seq)
	*held = s.bodies.New(body)
	for _, dst := range s.group {
		p := s.net.AllocTo(s.src, dst, size, kindData, nil)
		p.Body = body
		s.net.Send(p)
	}
	s.beat()
	return s.seq
}

// beat restarts the heartbeat: the next SPM leaves one SPMInterval from
// now. A send moves the pending event instead of letting it fire.
func (s *Sender) beat() {
	if s.closed {
		return
	}
	s.idle = 0
	at := s.loop.Now() + s.cfg.SPMInterval
	if !s.loop.RescheduleHandle(s.spm, at) {
		s.spm = s.loop.AtTimer(at, "pgm:spm", spmTimer, s, nil, 0).Handle()
	}
}

// spmTimer emits the Source Path Message heartbeat and re-arms it twice as
// far out: it never stops (tail repair stays eventual), it only gets rare.
func spmTimer(a, _ any, _ uint64) {
	s := a.(*Sender)
	for _, dst := range s.group {
		p := s.net.AllocTo(s.src, dst, 32, kindSPM, nil)
		p.Body.StreamSeq = s.seq // advertised max sequence
		s.net.Send(p)
	}
	s.idle = min(s.idle+1, maxBackoff)
	s.spm = s.loop.AfterTimer(s.cfg.SPMInterval<<s.idle, "pgm:spm", spmTimer, s, nil, 0).Handle()
}

// SetGroup replaces the receiver group — membership reconfiguration when a
// replica is re-homed. Future data, SPMs and repairs go to the new group;
// a joining member must be primed (Receiver.Prime) with NextSeq so it does
// not NAK history from before it joined. An empty group silences the
// sender — not even an SPM heartbeat, which would resurrect receiver stream
// state on departed members, leaves — until a later SetGroup restores one.
func (s *Sender) SetGroup(group []netsim.Addr) error {
	// Reuse the existing backing array: the input is copied in (callers
	// keep ownership of theirs), and Group() hands out copies.
	s.cfg.Group = append(s.cfg.Group[:0], group...)
	s.group = slices.Grow(s.group[:0], cap(s.cfg.Group)) // one allocation, like cfg.Group's
	for _, a := range group {
		s.group = append(s.group, s.net.Endpoint(a))
	}
	return nil
}

// NextSeq returns the sequence number the next Multicast call will use.
// New group members prime their receiver state with it.
func (s *Sender) NextSeq() uint64 { return s.seq + 1 }

// Group returns a copy of the current receiver group — the membership
// audits group reconfiguration (drain, crash) relies on.
func (s *Sender) Group() []netsim.Addr {
	return append([]netsim.Addr(nil), s.cfg.Group...)
}

// Close retires the sender: no further data, repairs, or SPM heartbeats.
// Teardown paths must call it — an abandoned sender would otherwise keep
// heartbeating (every 64 SPMIntervals, but for ever) and resurrect receiver
// stream state that Receiver.Forget has already discarded.
func (s *Sender) Close() {
	s.closed = true
	s.win, s.bodies = bodyWindow{}, sim.Chunk[netsim.PacketBody]{}
	s.loop.CancelHandle(s.spm)
}

// Handle consumes NAKs addressed to this sender; it returns true when the
// packet was a multicast control packet for us.
func (s *Sender) Handle(pkt *netsim.Packet) bool {
	if pkt.Kind != kindNAK || pkt.Dst != s.cfg.Src {
		return false
	}
	s.beat() // somebody is listening, and short of something
	// Body.Seq is the set of missing sequences, bit i for StreamSeq+i.
	for seq, m := pkt.Body.StreamSeq, pkt.Body.Seq; m != 0; seq, m = seq+1, m>>1 {
		held := s.win.Get(seq)
		if m&1 == 0 || held == nil {
			continue // not asked for, or aged out of the window (unrecoverable here)
		}
		p := s.net.AllocTo(s.src, s.net.SourceOf(pkt), 64, kindData, nil)
		p.Body = **held
		s.net.Send(p)
	}
	return true
}

// ReceiverConfig parameterizes a group member.
type ReceiverConfig struct {
	// Addr is this receiver's fabric address.
	Addr netsim.Addr
	// NAKDelay is the backoff before the first NAK for a detected gap,
	// absorbing in-flight reordering (default 1ms).
	NAKDelay sim.Time
	// NAKInterval is the retry period for unanswered NAKs (default 3ms),
	// doubling up to 64x while nothing at all arrives from the source.
	NAKInterval sim.Time
	// OnData receives message bodies in sequence order per source. kind is
	// the inner stream kind the sender multicast under.
	OnData func(src netsim.Addr, seq uint64, kind string, body netsim.PacketBody)
}

// bodyWindow is both multicast windows: the sender's repair window and a
// receiver's holdback of out-of-order arrivals, whose Base is the next
// sequence to deliver. Slots point at their bodies rather than hold them: a
// body is 184 bytes and a sender's window is most of its memory — inline
// bodies measured +14 % peak RSS on the loaded cloud.
type bodyWindow = seqwin.Window[*netsim.PacketBody]

type sourceState struct {
	src   *netsim.Endpoint // the stream's source (NAK destination)
	hold  bodyWindow       // held-back out-of-order bodies; Base is the next expected seq
	want  uint64           // one past the highest seq seen or advertised (>= Base)
	quiet uint8            // NAK bursts since the source was last heard, capped
	timer sim.Handle       // pending NAK burst (weak: stale once fired)
}

// Receiver is a reliable multicast group member. One receiver can track any
// number of sources.
type Receiver struct {
	net  *netsim.Network
	loop *sim.Loop
	cfg  ReceiverConfig
	self *netsim.Endpoint // cfg.Addr, resolved once: NAKs leave from here
	srcs netsim.EndpointTable[*sourceState]
}

// NewReceiver creates a group member.
func NewReceiver(net *netsim.Network, loop *sim.Loop, cfg ReceiverConfig) (*Receiver, error) {
	if net == nil || loop == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrMulticast)
	}
	if cfg.Addr == "" || cfg.OnData == nil {
		return nil, fmt.Errorf("%w: receiver needs addr and OnData", ErrMulticast)
	}
	if cfg.NAKDelay <= 0 {
		cfg.NAKDelay = sim.Millisecond
	}
	if cfg.NAKInterval <= 0 {
		cfg.NAKInterval = 3 * sim.Millisecond
	}
	return &Receiver{
		net:  net,
		loop: loop,
		cfg:  cfg,
		self: net.Endpoint(cfg.Addr),
	}, nil
}

// Handle consumes multicast packets; returns true when the packet belonged
// to this layer.
func (r *Receiver) Handle(pkt *netsim.Packet) bool {
	switch pkt.Kind {
	case kindData:
		r.onData(r.state(r.net.SourceOf(pkt)), pkt.Body)
		return true
	case kindSPM:
		// The advertised maximum marks everything up to it expected.
		st := r.state(r.net.SourceOf(pkt))
		r.heard(st)
		r.request(st, pkt.Body.StreamSeq+1)
		return true
	default:
		return false
	}
}

// heard notes traffic from st's source: NAK retries return to NAKInterval,
// the pending one included if it had backed off.
func (r *Receiver) heard(st *sourceState) {
	if st.quiet > 1 {
		r.loop.RescheduleHandle(st.timer, r.loop.Now()+r.cfg.NAKInterval)
	}
	st.quiet = 0
}

// Prime (re)initializes this receiver's per-source state to expect seq
// `next` from src, discarding any held-back or NAK state. It is how a
// member joins an in-progress stream (a re-homed replica joining its
// guest's ingress stream mid-sequence) without NAKing the stream's entire
// history. next is at least 1 (Sender.NextSeq).
func (r *Receiver) Prime(src netsim.Addr, next uint64) {
	ep := r.net.Endpoint(src)
	if st, ok := r.srcs.Get(ep); ok {
		r.loop.CancelHandle(st.timer)
	}
	r.srcs.Put(ep, &sourceState{src: ep, hold: seqwin.New[*netsim.PacketBody](next), want: next})
}

// Forget drops this receiver's state for a source stream (the stream's
// guest was evicted). A later stream reusing the same source address starts
// fresh at seq 1.
func (r *Receiver) Forget(src netsim.Addr) {
	ep := r.net.Endpoint(src)
	if st, ok := r.srcs.Get(ep); ok {
		r.loop.CancelHandle(st.timer)
		r.srcs.Delete(ep)
	}
}

func (r *Receiver) state(src *netsim.Endpoint) *sourceState {
	st, ok := r.srcs.Get(src)
	if !ok {
		st = &sourceState{src: src, hold: seqwin.New[*netsim.PacketBody](1), want: 1}
		r.srcs.Put(src, st)
	}
	return st
}

func (r *Receiver) onData(st *sourceState, body netsim.PacketBody) {
	r.heard(st)
	seq := body.StreamSeq
	if seq == st.hold.Base() && st.hold.Len() == 0 {
		// In-order with nothing held back — the overwhelmingly common
		// case. Deliver straight through without touching the ring, so a
		// well-behaved stream never allocates a holdback window at all.
		st.hold.SkipTo(seq + 1)
		r.cfg.OnData(st.src.Addr(), seq, body.StreamKind, body)
	} else {
		slot, fresh := st.hold.Open(seq)
		if !fresh {
			return // delivered, held back already, or out of any window's reach
		}
		// The copy is made here, not by taking the parameter's address:
		// that would move every in-order body to the heap as well.
		held := body
		*slot = &held
		r.drain(st)
	}
	// Gap: anything between next and the highest seq known is missing.
	r.request(st, seq+1)
}

func (r *Receiver) drain(st *sourceState) {
	for {
		slot := st.hold.Get(st.hold.Base())
		if slot == nil {
			return
		}
		body := *slot
		*slot = nil
		st.hold.Retire(st.hold.Base())
		r.cfg.OnData(st.src.Addr(), body.StreamSeq, body.StreamKind, *body)
	}
}

// request marks every sequence below end expected and, if any in
// [next, want) is not held back, makes sure a NAK burst is pending. The
// first NAK waits NAKDelay to absorb reordering.
func (r *Receiver) request(st *sourceState, end uint64) {
	st.want = max(st.want, end)
	if st.want-st.hold.Base() > uint64(st.hold.Len()) && !st.timer.Pending() {
		st.timer = r.loop.AfterTimer(r.cfg.NAKDelay, "pgm:nak", nakTimer, r, st, 0).Handle()
	}
}

// nakTimer fires a receiver's pending NAK burst for one source stream: the
// missing sequences among the 64 from the lowest one, as a bit set in the
// packet body (nothing is allocated however long a dead source is retried).
func nakTimer(a, b any, _ uint64) {
	r := a.(*Receiver)
	st := b.(*sourceState)
	var set uint64
	next := st.hold.Base()
	for i := uint64(0); i < 64 && next+i < st.want; i++ {
		if st.hold.Get(next+i) == nil {
			set |= 1 << i
		}
	}
	if set == 0 {
		return
	}
	p := r.net.AllocTo(r.self, st.src, 40, kindNAK, nil)
	p.Body.StreamSeq, p.Body.Seq = next, set
	r.net.Send(p)
	// Re-arm: if the repair is lost too, NAK again — ever more rarely while
	// the source stays silent.
	st.timer = r.loop.AfterTimer(r.cfg.NAKInterval<<st.quiet, "pgm:nak", nakTimer, r, st, 0).Handle()
	st.quiet = min(st.quiet+1, maxBackoff)
}
