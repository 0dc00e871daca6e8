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
// granularity with MSS-sized data packets. Segments travel as *Segment,
// carved by each sender from its own sim.Chunk, and are immutable once sent:
// a pointer may sit in a packet in flight, a replay journal, an egress copy
// group and a snapshot's op queue at once, so nobody writes through it.
package transport

import (
	"errors"
	"fmt"
	"strconv"
)

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

var flagNames = [...]string{FlagSYN: "SYN", FlagSYNACK: "SYNACK", FlagACK: "ACK", FlagREQ: "REQ", FlagDATA: "DATA"}

func (f Flag) String() string {
	if f <= 0 || int(f) >= len(flagNames) {
		return "?"
	}
	return flagNames[f]
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

// AppendDigest appends exactly what fmt's %v prints for the Segment value
// — "{conn FLAG seq total respID req}" — without reflection: guest output
// digests fold every segment a server sends.
func (s *Segment) AppendDigest(b []byte) []byte {
	b = strconv.AppendUint(append(b, '{'), s.Conn, 10)
	b = append(append(append(b, ' '), s.Flags.String()...), ' ')
	b = strconv.AppendInt(b, int64(s.Seq), 10)
	b = strconv.AppendInt(append(b, ' '), int64(s.Total), 10)
	b = strconv.AppendUint(append(b, ' '), s.RespID, 10)
	if b = append(b, ' '); s.Req == nil {
		return append(b, "<nil>}"...)
	}
	return append(fmt.Append(b, s.Req), '}')
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
