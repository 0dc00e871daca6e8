// Package transport provides the two transports the evaluation's guests
// serve over: a TCP-like stream (three-way handshake, a fixed window that
// advances on cumulative ACKs, delayed-ACK coalescing at the client) for
// Fig 5's HTTP column and Fig 6's NFS, and a UDP-like datagram blast for
// Fig 5's UDP column. The UDP client sends one request and nothing else, so
// no client packet enters the server's inbound path, which is where
// StopWatch's cost lives: the paper's Sec. VII-C point.
//
// Loss on the client link is not modelled, and neither side recovers a
// lost segment: there is no retransmission timer, client retry or negative
// acknowledgment. The client link of every experiment is lossless, and
// StopWatch's own loss is repaired below the guests: between replicas by
// the proposal exchange, whose pacing beacons ack and retry each proposal,
// and on the ingress legs by the multicast layer. A scenario that puts
// loss on a link ending at a transport client is refused by validation.
//
// The server sides run inside guests (driven by guest.Ctx); the client
// sides are fabric endpoints. The protocol is modeled at segment
// granularity with MSS-sized data packets.
package transport

import "errors"

// ErrTransport reports invalid transport use.
var ErrTransport = errors.New("transport: invalid")

// MSS is the data bytes carried per segment.
const MSS = 1448

// Sizes of wire artifacts (bytes), roughly Ethernet-framed.
const (
	CtrlSize = 66   // SYN / SYN-ACK / ACK
	ReqSize  = 120  // request carrying an op descriptor
	DataSize = 1514 // full-MSS data segment
)

// Flag enumerates segment types.
type Flag int

// Segment flags.
const (
	FlagSYN Flag = iota + 1
	FlagSYNACK
	FlagACK
	FlagREQ
	FlagDATA
)

func (f Flag) String() string {
	switch f {
	case FlagSYN:
		return "SYN"
	case FlagSYNACK:
		return "SYNACK"
	case FlagACK:
		return "ACK"
	case FlagREQ:
		return "REQ"
	case FlagDATA:
		return "DATA"
	default:
		return "?"
	}
}

// Segment is the wire payload for both transports.
type Segment struct {
	Conn  uint64 // connection id (client-chosen)
	Flags Flag
	// DATA: index of this segment within the response; ACK and REQ:
	// cumulative next expected index.
	Seq int
	// DATA: total segments in the response.
	Total int
	// RespID identifies which request a DATA segment answers.
	RespID uint64
	// REQ: opaque request descriptor.
	Req any
}

// SegCount returns the number of MSS segments needed for n bytes.
func SegCount(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + MSS - 1) / MSS
}

// segSize returns the wire size of the i-th of total segments for n bytes.
func segSize(i, total, n int) int {
	if i < total-1 {
		return DataSize
	}
	rem := n - (total-1)*MSS
	if rem <= 0 {
		return CtrlSize
	}
	return rem + (DataSize - MSS)
}
