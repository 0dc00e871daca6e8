// Package multicast implements a NAK-based reliable multicast in the style
// of PGM/OpenPGM (RFC 3208), which StopWatch uses for two jobs (Sec. VII-A):
// replicating inbound guest packets from the ingress node to the three
// replica hosts, and exchanging proposed interrupt delivery times among the
// VMMs hosting a guest's replicas.
//
// Reliability is receiver-driven: receivers detect sequence gaps and send
// NAKs; the sender retransmits from its window. Source Path Messages (SPMs)
// advertise the highest sequence so trailing losses are detected too.
// Delivery to the application is in sequence order.
package multicast

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"stopwatch/internal/netsim"
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

type nakMsg struct {
	Seqs []uint64
}

// SenderConfig parameterizes a multicast source.
type SenderConfig struct {
	// Src is the sender's fabric address.
	Src netsim.Addr
	// Group lists receiver addresses.
	Group []netsim.Addr
	// SPMInterval is the heartbeat period while the window is open
	// (default 5ms).
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
	// win retains the last WindowSize bodies, envelope stamped, for repair.
	win holdRing

	spmPending bool
	closed     bool

	sent     uint64
	retrans  uint64
	nakRecvd uint64
}

// NewSender creates a multicast source.
func NewSender(net *netsim.Network, loop *sim.Loop, cfg SenderConfig) (*Sender, error) {
	if net == nil || loop == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrMulticast)
	}
	if cfg.Src == "" || len(cfg.Group) == 0 {
		return nil, fmt.Errorf("%w: sender needs src and group", ErrMulticast)
	}
	if cfg.SPMInterval <= 0 {
		cfg.SPMInterval = 5 * sim.Millisecond
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 4096
	}
	// win allocates on the first Multicast: senders are wired per guest
	// under churn, often before any traffic exists.
	s := &Sender{
		net:  net,
		loop: loop,
		cfg:  cfg,
		src:  net.Endpoint(cfg.Src),
		win:  holdRing{base: 1},
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
	if s.win.held == s.cfg.WindowSize {
		s.win.takeBase() // age out the oldest before the ring would grow
	}
	s.win.put(s.seq, body)
	for _, dst := range s.group {
		p := s.net.AllocTo(s.src, dst, size, kindData, nil)
		p.Body = body
		s.net.Send(p)
	}
	s.sent++
	s.armSPM()
	return s.seq
}

func (s *Sender) armSPM() {
	if s.spmPending || s.closed {
		return
	}
	s.spmPending = true
	s.loop.AfterTimer(s.cfg.SPMInterval, "pgm:spm", spmTimer, s, nil, 0)
}

// spmTimer emits the Source Path Message heartbeat while the repair window
// is open.
func spmTimer(a, _ any, _ uint64) {
	s := a.(*Sender)
	s.spmPending = false
	if s.seq == 0 || s.closed {
		return
	}
	for _, dst := range s.group {
		p := s.net.AllocTo(s.src, dst, 32, kindSPM, nil)
		p.Body.StreamSeq = s.seq // advertised max sequence
		s.net.Send(p)
	}
	// Keep heartbeating while messages might still need repair.
	if s.win.held > 0 {
		s.armSPM()
	}
}

// SetGroup replaces the receiver group — membership reconfiguration when a
// replica is re-homed. Future data, SPMs and repairs go to the new group;
// a joining member must be primed (Receiver.Prime) with NextSeq so it does
// not NAK history from before it joined. An empty group is allowed and
// silences the sender (a sole-survivor replica has no peers left): nothing
// is transmitted — not even SPM heartbeats, which would otherwise resurrect
// receiver stream state on departed or repaired members — until a later
// SetGroup restores receivers.
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

// Endpoints returns the current receiver group resolved — the sender's own
// slice, valid until the next SetGroup.
func (s *Sender) Endpoints() []*netsim.Endpoint { return s.group }

// Closed reports whether the sender has been retired.
func (s *Sender) Closed() bool { return s.closed }

// Close retires the sender: no further data, repairs, or SPM heartbeats
// (the pending one, if armed, becomes a no-op). Teardown paths must call
// it — an abandoned sender would otherwise heartbeat forever (its window
// only drains by overflow) and resurrect receiver stream state that
// Receiver.Forget has already discarded.
func (s *Sender) Close() {
	s.closed = true
	s.win = holdRing{}
}

// Handle consumes NAKs addressed to this sender; it returns true when the
// packet was a multicast control packet for us.
func (s *Sender) Handle(pkt *netsim.Packet) bool {
	if pkt.Kind != kindNAK || pkt.Dst != s.cfg.Src {
		return false
	}
	nak, ok := pkt.Payload.(nakMsg)
	if !ok {
		return true
	}
	s.nakRecvd++
	for _, seq := range nak.Seqs {
		body := s.win.get(seq)
		if body == nil {
			continue // aged out of the window; receiver is unrecoverable here
		}
		s.retrans++
		p := s.net.AllocTo(s.src, s.net.SourceOf(pkt), 64, kindData, nil)
		p.Body = *body
		s.net.Send(p)
	}
	return true
}

// SenderStats reports sender-side counters.
type SenderStats struct {
	Sent, Retransmitted, NAKsReceived uint64
}

// Stats returns sender counters.
func (s *Sender) Stats() SenderStats {
	return SenderStats{Sent: s.sent, Retransmitted: s.retrans, NAKsReceived: s.nakRecvd}
}

// ReceiverConfig parameterizes a group member.
type ReceiverConfig struct {
	// Addr is this receiver's fabric address.
	Addr netsim.Addr
	// NAKDelay is the backoff before the first NAK for a detected gap,
	// absorbing in-flight reordering (default 1ms).
	NAKDelay sim.Time
	// NAKInterval is the retry period for unanswered NAKs (default 3ms).
	NAKInterval sim.Time
	// OnData receives message bodies in sequence order per source. kind is
	// the inner stream kind the sender multicast under.
	OnData func(src netsim.Addr, seq uint64, kind string, body netsim.PacketBody)
}

// holdRing is a seq-indexed ring over the window [base, base+len(buf)). As
// the receiver's holdback buffer, base is the next expected sequence:
// in-order traffic never touches it; out-of-order arrivals land in their
// slot and the ring grows (power-of-two) only when a gap outlives the
// current window. As the sender's repair window, base is the oldest body
// retained and every slot up to the last sequence sent is present. Slots
// point at their bodies: a body is 184 bytes and a sender's window is most
// of its memory, so the ring must be able to grow without moving them.
type holdRing struct {
	buf  []*netsim.PacketBody // nil: absent
	base uint64               // seq of the logical first slot
	held int
}

func (r *holdRing) slot(seq uint64) **netsim.PacketBody {
	return &r.buf[seq&uint64(len(r.buf)-1)]
}

// get returns the body held at seq, nil if there is none.
func (r *holdRing) get(seq uint64) *netsim.PacketBody {
	if seq < r.base || seq >= r.base+uint64(len(r.buf)) {
		return nil
	}
	return *r.slot(seq)
}

// put stores a copy of body at seq (seq >= base), growing the ring when
// seq falls outside the current window.
func (r *holdRing) put(seq uint64, body netsim.PacketBody) {
	if need := seq - r.base + 1; need > uint64(len(r.buf)) {
		old := r.buf
		r.buf = make([]*netsim.PacketBody, max(16, 1<<bits.Len64(need-1)))
		for q := r.base; q < r.base+uint64(len(old)); q++ {
			*r.slot(q) = old[q&uint64(len(old)-1)]
		}
	}
	s := r.slot(seq)
	if *s == nil {
		r.held++
	}
	*s = &body
}

// takeBase removes and returns the body at base, advancing the window; nil
// if base is absent.
func (r *holdRing) takeBase() *netsim.PacketBody {
	body := r.get(r.base)
	if body != nil {
		*r.slot(r.base) = nil
		r.base++
		r.held--
	}
	return body
}

type sourceState struct {
	src   *netsim.Endpoint // the stream's source (NAK destination)
	next  uint64           // next expected seq
	hold  holdRing         // held-back out-of-order bodies, window base == next
	hiSeq uint64           // highest seq seen (>= next); gap scan upper bound
	naked map[uint64]bool  // outstanding NAKs; nil until the first gap
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

	delivered uint64
	naksSent  uint64
	dups      uint64
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
		// The advertised max sequence marks everything up to it expected.
		r.request(r.state(r.net.SourceOf(pkt)), pkt.Body.StreamSeq+1)
		return true
	default:
		return false
	}
}

// Prime (re)initializes this receiver's per-source state to expect seq
// `next` from src, discarding any held-back or NAK state. It is how a
// member joins an in-progress stream (a re-homed replica joining the
// ingress and peer-proposal streams mid-sequence) without NAKing the
// stream's entire history.
func (r *Receiver) Prime(src netsim.Addr, next uint64) {
	if next == 0 {
		next = 1
	}
	ep := r.net.Endpoint(src)
	if st, ok := r.srcs.Get(ep); ok {
		r.loop.CancelHandle(st.timer)
	}
	st := &sourceState{src: ep, next: next}
	st.hold.base = next
	r.srcs.Put(ep, st)
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
		st = &sourceState{src: src, next: 1}
		st.hold.base = 1
		r.srcs.Put(src, st)
	}
	return st
}

func (r *Receiver) onData(st *sourceState, body netsim.PacketBody) {
	seq := body.StreamSeq
	if seq < st.next || st.hold.get(seq) != nil {
		r.dups++
		return
	}
	if seq == st.next && st.hold.held == 0 {
		// In-order with nothing held back — the overwhelmingly common
		// case. Deliver straight through without touching the ring, so a
		// well-behaved stream never allocates a holdback window at all.
		st.next++
		st.hold.base = st.next
		if seq > st.hiSeq {
			st.hiSeq = seq
		}
		if st.naked != nil {
			delete(st.naked, seq)
		}
		r.delivered++
		r.cfg.OnData(st.src.Addr(), body.StreamSeq, body.StreamKind, body)
		r.request(st, st.hiSeq)
		return
	}
	st.hold.put(seq, body)
	if seq > st.hiSeq {
		st.hiSeq = seq
	}
	delete(st.naked, seq)
	r.drain(st)
	// Gap: anything between next and the highest held-back seq is missing.
	r.request(st, st.hiSeq)
}

func (r *Receiver) drain(st *sourceState) {
	for {
		body := st.hold.takeBase()
		if body == nil {
			return
		}
		st.next++
		r.delivered++
		r.cfg.OnData(st.src.Addr(), body.StreamSeq, body.StreamKind, *body)
	}
}

// request NAKs every sequence in [next, end) that is neither held back nor
// already requested.
func (r *Receiver) request(st *sourceState, end uint64) {
	changed := false
	for seq := st.next; seq < end; seq++ {
		if st.hold.get(seq) == nil && !st.naked[seq] {
			if st.naked == nil {
				st.naked = make(map[uint64]bool)
			}
			st.naked[seq] = true
			changed = true
		}
	}
	if changed {
		r.armNAK(st, r.cfg.NAKDelay)
	}
}

// armNAK schedules a NAK burst after the given delay unless one is already
// pending. The delay absorbs reordering (first NAK) and paces retries.
func (r *Receiver) armNAK(st *sourceState, delay sim.Time) {
	if st.timer.Pending() {
		return
	}
	st.timer = r.loop.AfterTimer(delay, "pgm:nak", nakTimer, r, st, 0).Handle()
}

// nakTimer fires a receiver's pending NAK burst for one source stream.
func nakTimer(a, b any, _ uint64) {
	r := a.(*Receiver)
	st := b.(*sourceState)
	st.timer = sim.Handle{}
	r.sendNAKs(st)
}

func (r *Receiver) sendNAKs(st *sourceState) {
	if len(st.naked) == 0 {
		return
	}
	seqs := make([]uint64, 0, len(st.naked))
	for seq := range st.naked {
		if seq < st.next {
			delete(st.naked, seq)
			continue
		}
		seqs = append(seqs, seq)
	}
	if len(seqs) == 0 {
		return
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	r.naksSent++
	r.net.Send(r.net.AllocTo(r.self, st.src, 40, kindNAK, nakMsg{Seqs: seqs}))
	// Re-arm: if the repair is lost too, NAK again.
	r.armNAK(st, r.cfg.NAKInterval)
}

// ReceiverStats reports receiver-side counters.
type ReceiverStats struct {
	Delivered, NAKsSent, Duplicates uint64
}

// Stats returns receiver counters.
func (r *Receiver) Stats() ReceiverStats {
	return ReceiverStats{Delivered: r.delivered, NAKsSent: r.naksSent, Duplicates: r.dups}
}
