package guest

import (
	"encoding/binary"
	"fmt"
)

// SnapshotReader is the decoding cursor for Snapshotter encodings: varints,
// flag bytes and length-prefixed strings read off the front of the data,
// with a sticky error — after the first malformed field every read returns
// zero, so a decoder reads a whole record and checks Err once. Snapshot
// bytes cross a trust boundary (a checkpoint shipped from another replica),
// so every read fails closed; in particular Count never lets a corrupt
// element count size an allocation.
type SnapshotReader struct {
	data     []byte
	err      error
	sentinel error
	what     string
}

// NewSnapshotReader reads data; a malformed field reports
// "<sentinel>: <what>: bad <field>".
func NewSnapshotReader(data []byte, sentinel error, what string) *SnapshotReader {
	return &SnapshotReader{data: data, sentinel: sentinel, what: what}
}

// Fail records field as malformed (the first failure wins). Decoders call
// it for range checks the cursor cannot know.
func (r *SnapshotReader) Fail(field string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s: bad %s", r.sentinel, r.what, field)
	}
}

// Err returns the first failure, or nil.
func (r *SnapshotReader) Err() error { return r.err }

// Rest returns the unread bytes — where an embedded encoding (the transport
// server's state inside an app's snapshot) picks up.
func (r *SnapshotReader) Rest() []byte { return r.data }

// Uvarint reads one unsigned varint.
func (r *SnapshotReader) Uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.Fail(field)
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint reads one signed varint.
func (r *SnapshotReader) Varint(field string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.Fail(field)
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Count reads an element count and rejects one the unread bytes cannot
// hold (every element encodes to at least one byte), so the caller may size
// a map or slice from it: the allocation is bounded by the input's length.
func (r *SnapshotReader) Count(field string) uint64 {
	n := r.Uvarint(field)
	if n > uint64(len(r.data)) {
		r.Fail(field)
		return 0
	}
	return n
}

// Flag reads one byte that must be 0 or 1.
func (r *SnapshotReader) Flag(field string) bool {
	if r.err != nil {
		return false
	}
	if len(r.data) == 0 || r.data[0] > 1 {
		r.Fail(field)
		return false
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b == 1
}

// Text reads a length-prefixed byte string.
func (r *SnapshotReader) Text(field string) string {
	n := r.Count(field)
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// End fails unless every byte was read.
func (r *SnapshotReader) End() error {
	if len(r.data) != 0 {
		r.Fail("trailing bytes")
	}
	return r.err
}
