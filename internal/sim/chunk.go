package sim

// Chunk hands out pointers to values carved from shared buffers, one
// allocation per up to chunkMax values. The chunk guarantees that no element
// is handed out twice and no buffer is reused, so a pointer stays the one
// owner's for as long as anyone holds it. Buffers double from 1 up to
// chunkMax, so the unused slack is at most min(handed out, chunkMax-1). The
// zero Chunk is ready to use.
//
// What the owner does with the element is its own rule: transport payloads
// are written once and then only read (the transport package doc states
// it); a netsim link is mutated in place, but exactly one table entry owns
// it.
type Chunk[T any] struct{ buf []T }

const chunkMax = 64

// New returns a pointer to a fresh element holding v.
func (c *Chunk[T]) New(v T) *T {
	if len(c.buf) == cap(c.buf) {
		c.buf = make([]T, 0, min(max(2*cap(c.buf), 1), chunkMax))
	}
	c.buf = append(c.buf, v)
	return &c.buf[len(c.buf)-1]
}
