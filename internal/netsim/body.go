package netsim

import "stopwatch/internal/vtime"

// BodyKind discriminates the typed packet-body union.
type BodyKind uint8

// Body kinds carried by the StopWatch protocols.
const (
	// BodyNone marks a packet whose structure (if any) rides in Payload.
	BodyNone BodyKind = iota
	// BodyProp is a VMM delivery-time proposal (Sec. IV-B).
	BodyProp
	// BodyPace is a Dom0 pacing beacon, which also carries the sender's
	// latest Sec. IV-A epoch sample.
	BodyPace
	// BodyEgress is a guest output tunnelled to the egress node (Sec. VI).
	BodyEgress
	// BodyInbound is an ingress-replicated client packet (Sec. V).
	BodyInbound
)

// PacketBody is the typed union of the hot protocol payloads. It lives
// inline in every Packet, so the steady-state paths — proposals, pacing
// beacons, egress tunnelling, ingress replication, multicast envelopes —
// carry their structure without boxing into Payload (which costs one heap
// allocation per message and an interface type-assert per delivery).
//
// Kind selects which fields are meaningful; unrelated fields are zero. The
// reliable-multicast envelope (StreamSeq, StreamKind) composes with any
// inner kind: an ingress packet replicated over multicast is a pgm:data
// packet whose body is BodyInbound plus the stream stamp.
type PacketBody struct {
	Kind BodyKind

	// Reliable-multicast envelope (pgm:data carries the inner body); a
	// pgm:spm advertises the highest sequence in StreamSeq, a pgm:nak names
	// the missing ones as StreamSeq (the lowest) plus the bit set Seq (bit i:
	// StreamSeq+i). A proposal (BodyProp) carries its number in StreamSeq, a
	// pacing beacon (BodyPace) acks the receiving peer's proposals up to it.
	StreamSeq  uint64
	StreamKind string

	// Proposal / pacing fields. A beacon's epoch sample rides as Epoch = the
	// sampled epoch's index + 1 and Sample; Epoch 0 means it carries none.
	GuestID string
	Origin  string // origin host (proposals, beacons) or replica (egress)
	View    uint64
	Seq     uint64 // proposal seq, per-guest egress output seq, or NAK bit set
	Virt    vtime.Virtual
	Epoch   int64
	Sample  vtime.EpochSample

	// Egress-tunnel fields (BodyEgress).
	OrigDst Addr

	// Ingress-replication field (BodyInbound).
	ClientSrc Addr

	// Size is the original wire size of the carried packet (egress and
	// inbound bodies); Data is the opaque application payload.
	Size int
	Data any
}
