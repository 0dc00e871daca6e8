// Server-side transport state serialization, used by apps that implement
// guest.Snapshotter (checkpointed journals): a file server mid-response
// must capture its connection table and window positions, or a replica
// restored from a checkpoint would silently drop in-flight responses.
//
// Encodings are deterministic — map entries are emitted in sorted key
// order (connKey.compare) — so identical server states serialize to
// identical bytes on every replica. Only mutable state is captured;
// configuration (window, callbacks, per-segment costs) is rebuilt by the app
// factory.

package transport

import (
	"encoding/binary"
	"maps"
	"slices"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
)

func appendAddr(buf []byte, a netsim.Addr) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(a)))
	return append(buf, a...)
}

// AppendState serializes the stream server's mutable state (connections
// and in-flight responses) onto buf.
func (s *TCPServer) AppendState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s.conns)))
	for _, k := range slices.SortedFunc(maps.Keys(s.conns), connKey.compare) {
		c := s.conns[k]
		buf = binary.AppendUvarint(buf, k.id)
		buf = appendAddr(buf, c.peer)
		if c.resp == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		r := c.resp
		buf = binary.AppendUvarint(buf, r.id)
		buf = binary.AppendUvarint(buf, r.conn)
		buf = binary.AppendVarint(buf, int64(r.total))
		buf = binary.AppendVarint(buf, int64(r.bytes))
		buf = binary.AppendVarint(buf, int64(r.nextSend))
		buf = binary.AppendVarint(buf, int64(r.acked))
	}
	return buf
}

// RestoreState rebuilds the stream server's mutable state from the prefix
// of data written by AppendState, returning the unconsumed remainder.
func (s *TCPServer) RestoreState(data []byte) ([]byte, error) {
	r := guest.NewSnapshotReader(data, ErrTransport, "snapshot")
	n := r.Count("tcp conn count")
	conns := make(map[connKey]*serverConn, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		id := r.Uvarint("tcp conn id")
		c := &serverConn{peer: netsim.Addr(r.Text("tcp peer"))}
		if r.Flag("tcp resp flag") {
			c.resp = &serverResp{
				id:       r.Uvarint("tcp resp id"),
				conn:     r.Uvarint("tcp resp conn"),
				total:    int(r.Varint("tcp resp total")),
				bytes:    int(r.Varint("tcp resp bytes")),
				nextSend: int(r.Varint("tcp resp nextSend")),
				acked:    int(r.Varint("tcp resp acked")),
			}
		}
		conns[connKey{c.peer, id}] = c
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	s.conns = conns
	return r.Rest(), nil
}

// AppendState implements Server: a datagram stack has no state to write.
func (s *UDPServer) AppendState(buf []byte) []byte { return buf }

// RestoreState implements Server: it consumes nothing.
func (s *UDPServer) RestoreState(data []byte) ([]byte, error) { return data, nil }
