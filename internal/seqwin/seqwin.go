// Package seqwin is the one table StopWatch's per-packet mechanisms share:
// state keyed by a per-guest sequence number, where sequences are contiguous
// and finish almost in order. The ingress repair window and the replicas'
// holdback (Sec. V), the VMMs' pending median agreements (Sec. IV-B) and the
// egress's copy groups (Sec. VI) are each a Window.
package seqwin

import "iter"

// MaxSpan bounds Top-Base. Sequence numbers arrive in packets; a window that
// grew to reach whatever number it was handed would let one packet size an
// allocation, so Open refuses a sequence this far above Base instead.
const MaxSpan = 1 << 16

// minSlots is the first ring's size: most windows never hold more than a
// few sequences, and there is one per replica, per stream and per guest.
const minSlots = 4

// Slot states. Every slot outside [base, top) is empty.
const (
	empty   uint8 = iota
	open          // handed out by Open, not yet retired
	retired       // finished, but a lower sequence has not: absorbs stragglers
)

// Window is a power-of-two ring of T over the sequences [Base, Top). A
// sequence is opened, then retired; Base slides past the retired prefix, and
// everything below it is done. An in-window sequence that was never opened
// (its packet is still in flight) blocks the slide.
//
// The window never reads or writes a T: a re-opened slot hands back what the
// previous sequence left there. Callers keep their backing arrays that way,
// and must clear whatever may not outlive a sequence themselves.
type Window[T any] struct {
	vals  []T
	state []uint8 // parallel to vals: T is often one pointer, and padding would double it
	base  uint64
	top   uint64
	open  int
}

// New returns an empty window starting at base. Its ring is allocated by the
// first Open that needs one.
func New[T any](base uint64) Window[T] { return Window[T]{base: base, top: base} }

// Base returns the lowest sequence not yet done.
func (w *Window[T]) Base() uint64 { return w.base }

// Top returns one past the highest sequence ever opened (Base when none is).
func (w *Window[T]) Top() uint64 { return w.top }

// Len returns the number of open sequences.
func (w *Window[T]) Len() int { return w.open }

func (w *Window[T]) index(seq uint64) int { return int(seq & uint64(len(w.vals)-1)) }

// Done reports whether seq is finished: below Base, or retired above it.
func (w *Window[T]) Done(seq uint64) bool {
	return seq < w.base || seq < w.top && w.state[w.index(seq)] == retired
}

// Get returns seq's slot if it is open, nil otherwise.
func (w *Window[T]) Get(seq uint64) *T {
	if seq < w.base || seq >= w.top {
		return nil
	}
	if i := w.index(seq); w.state[i] == open {
		return &w.vals[i]
	}
	return nil
}

// Open returns seq's slot, opening it (fresh) if it was empty. It returns
// nil for a sequence that is Done, and for one at or past Base+MaxSpan. The
// pointer is valid until the next Open.
func (w *Window[T]) Open(seq uint64) (slot *T, fresh bool) {
	if seq < w.base || seq-w.base >= MaxSpan {
		return nil, false
	}
	if need := seq - w.base + 1; need > uint64(len(w.vals)) {
		w.grow(need)
	}
	i := w.index(seq)
	switch w.state[i] {
	case retired:
		return nil, false
	case empty:
		w.state[i] = open
		w.open++
		w.top = max(w.top, seq+1)
		return &w.vals[i], true
	}
	return &w.vals[i], false
}

// grow doubles the ring until it spans need sequences. Every old slot moves,
// the empty ones too: what they hold is their next sequence's to reuse.
func (w *Window[T]) grow(need uint64) {
	n := max(minSlots, len(w.vals))
	for uint64(n) < need {
		n <<= 1
	}
	vals, state := w.vals, w.state
	w.vals, w.state = make([]T, n), make([]uint8, n)
	for k := range vals {
		seq := w.base + uint64(k)
		from := int(seq & uint64(len(vals)-1))
		i := w.index(seq)
		w.vals[i], w.state[i] = vals[from], state[from]
	}
}

// Retire finishes an open sequence and slides Base past the retired prefix.
// Any other sequence is left as it is.
func (w *Window[T]) Retire(seq uint64) {
	if w.Get(seq) == nil {
		return
	}
	w.state[w.index(seq)] = retired
	w.open--
	w.slide()
}

func (w *Window[T]) slide() {
	for w.base < w.top && w.state[w.index(w.base)] == retired {
		w.state[w.index(w.base)] = empty
		w.base++
	}
}

// SkipTo declares every sequence below to done, whatever its state, and
// slides on past a retired prefix from there. A window never moves back.
func (w *Window[T]) SkipTo(to uint64) {
	if to <= w.base {
		return
	}
	for seq := w.base; seq < min(to, w.top); seq++ {
		i := w.index(seq)
		if w.state[i] == open {
			w.open--
		}
		w.state[i] = empty
	}
	w.base, w.top = to, max(to, w.top)
	w.slide()
}

// All iterates the open sequences in sequence order. The loop body may
// Retire and SkipTo; it may not Open.
func (w *Window[T]) All() iter.Seq2[uint64, *T] {
	return func(yield func(uint64, *T) bool) {
		for seq := w.base; seq < w.top; seq++ {
			if slot := w.Get(seq); slot != nil && !yield(seq, slot) {
				return
			}
		}
	}
}
