package sim

// Chunk hands out pointers to write-once values carved from shared buffers,
// one allocation per up to chunkMax values. No element is handed out twice
// and no buffer is reused, so a pointer reads the value it was made with for
// as long as anyone holds it. Buffers double from 1 up to chunkMax, so the
// unused slack is at most min(handed out, chunkMax-1). The zero Chunk is
// ready to use.
type Chunk[T any] struct{ buf []T }

const chunkMax = 64

// New returns a pointer to a fresh element holding v. Once the pointer is
// shared, nobody writes through it.
func (c *Chunk[T]) New(v T) *T {
	if len(c.buf) == cap(c.buf) {
		c.buf = make([]T, 0, min(max(2*cap(c.buf), 1), chunkMax))
	}
	c.buf = append(c.buf, v)
	return &c.buf[len(c.buf)-1]
}
