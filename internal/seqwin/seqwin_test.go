package seqwin

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the table a Window replaces: a map of the in-window sequences'
// states plus the two watermarks.
type model struct {
	state     map[uint64]uint8
	base, top uint64
}

func (m *model) open(seq uint64) (ok, fresh bool) {
	if seq < m.base || seq-m.base >= MaxSpan || m.state[seq] == retired {
		return false, false
	}
	fresh = m.state[seq] == empty
	m.state[seq] = open
	m.top = max(m.top, seq+1)
	return true, fresh
}

func (m *model) slide() {
	for m.base < m.top && m.state[m.base] == retired {
		delete(m.state, m.base)
		m.base++
	}
}

func (m *model) retire(seq uint64) {
	if m.state[seq] == open {
		m.state[seq] = retired
		m.slide()
	}
}

func (m *model) skipTo(to uint64) {
	if to <= m.base {
		return
	}
	for seq := range m.state {
		if seq < to {
			delete(m.state, seq)
		}
	}
	m.base, m.top = to, max(to, m.top)
	m.slide()
}

func (m *model) opened() []uint64 {
	var seqs []uint64
	for seq, st := range m.state {
		if st == open {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// check compares every observable of w with the model: the watermarks, Len,
// All's order, and Done/Get over the window and its surroundings. A slot's
// value is the sequence that opened it, so a value moved to the wrong slot
// by growth or a wrapped index shows too.
func check(t *testing.T, step int, w *Window[uint64], m *model) {
	t.Helper()
	if w.Base() != m.base || w.Top() != m.top {
		t.Fatalf("step %d: window [%d, %d), model [%d, %d)", step, w.Base(), w.Top(), m.base, m.top)
	}
	want := m.opened()
	if w.Len() != len(want) {
		t.Fatalf("step %d: Len %d, model %d", step, w.Len(), len(want))
	}
	var got []uint64
	for seq, v := range w.All() {
		if *v != seq {
			t.Fatalf("step %d: All yields seq %d holding %d", step, seq, *v)
		}
		got = append(got, seq)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: All yields %v, model %v", step, got, want)
	}
	probe := []uint64{0, m.top, m.top + 1, m.base + MaxSpan - 1, m.base + MaxSpan, 1 << 62}
	for seq := m.base - min(m.base, 3); seq < m.top; seq++ {
		if seq == m.base+2048 && m.top > seq+2048 {
			seq = m.top - 2048 // a window at full span: its two ends will do
		}
		probe = append(probe, seq)
	}
	for _, seq := range probe {
		done := seq < m.base || m.state[seq] == retired
		if w.Done(seq) != done {
			t.Fatalf("step %d: Done(%d) = %v, model %v", step, seq, w.Done(seq), done)
		}
		if v := w.Get(seq); (v != nil) != (m.state[seq] == open) || v != nil && *v != seq {
			t.Fatalf("step %d: Get(%d) = %v, model state %d", step, seq, v, m.state[seq])
		}
	}
}

func TestWindowMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A base that is no multiple of any ring size: indexes wrap at once.
		base := uint64(rng.Intn(5000)) + 1
		w := New[uint64](base)
		m := &model{state: map[uint64]uint8{}, base: base, top: base}
		// reach is how far above base an Open usually lands; now and then it
		// jumps, so the ring grows several doublings in one step while
		// holding live slots.
		for step := range 4000 {
			reach := uint64(8)
			if rng.Intn(50) == 0 {
				reach = 1 << uint(rng.Intn(11))
			}
			seq := m.base - min(m.base, 2) + uint64(rng.Int63n(int64(reach)+4))
			switch op := rng.Intn(10); {
			case op < 5:
				openBoth(t, step, &w, m, seq)
			case op < 9:
				w.Retire(seq)
				m.retire(seq)
			default:
				if rng.Intn(4) != 0 {
					seq = m.base + uint64(rng.Intn(3)) // mostly a short hop, as a primed join or an in-order delivery
				}
				w.SkipTo(seq)
				m.skipTo(seq)
			}
			check(t, step, &w, m)
		}
		// The edge of the span, with whatever the walk left open: the last
		// sequence admitted, the first two refused, and a skip past it all.
		for i, seq := range []uint64{m.base + MaxSpan, m.base + MaxSpan - 1, m.base + MaxSpan + 1} {
			openBoth(t, -i, &w, m, seq)
			check(t, -i, &w, m)
		}
		w.SkipTo(m.top + 7)
		m.skipTo(m.top + 7)
		check(t, -3, &w, m)
	}
}

// openBoth opens seq in the window and the model and compares the answers.
func openBoth(t *testing.T, step int, w *Window[uint64], m *model, seq uint64) {
	t.Helper()
	slot, fresh := w.Open(seq)
	ok, mfresh := m.open(seq)
	if (slot != nil) != ok || fresh != mfresh {
		t.Fatalf("step %d: Open(%d) = (%v, %v), model (%v, %v)", step, seq, slot != nil, fresh, ok, mfresh)
	}
	if fresh {
		*slot = seq
	}
}

// TestWindowRefusesToOutgrowItsSpan: a sequence taken from a packet cannot
// size the ring, however large it is, and refusing it changes nothing.
func TestWindowRefusesToOutgrowItsSpan(t *testing.T) {
	w := New[int](1)
	for _, seq := range []uint64{1 + MaxSpan, 1 << 40, 1 << 62, ^uint64(0)} {
		if slot, fresh := w.Open(seq); slot != nil || fresh {
			t.Fatalf("Open(%d) admitted a sequence %d past Base", seq, seq-w.Base())
		}
	}
	if w.Len() != 0 || w.Top() != 1 || len(w.vals) != 0 {
		t.Fatalf("refused opens left Len %d, Top %d, %d slots", w.Len(), w.Top(), len(w.vals))
	}
	if slot, fresh := w.Open(MaxSpan); slot == nil || !fresh || len(w.vals) != MaxSpan {
		t.Fatalf("the last sequence of the span: slot %v fresh %v, ring of %d", slot, fresh, len(w.vals))
	}
	// A skip far past the ring visits the ring's slots, not the distance.
	w.SkipTo(1 << 62)
	if w.Len() != 0 || w.Base() != 1<<62 || w.Top() != 1<<62 {
		t.Fatalf("after SkipTo: Len %d, window [%d, %d)", w.Len(), w.Base(), w.Top())
	}
}

// TestWindowSlotKeepsWhatItsLastSequenceLeft: the window never touches a T,
// which is how callers keep a slot's backing array across sequences — and
// across a growth of the ring.
func TestWindowSlotKeepsWhatItsLastSequenceLeft(t *testing.T) {
	w := New[[]int](1)
	put := func(seq uint64) {
		t.Helper()
		slot, fresh := w.Open(seq)
		if !fresh {
			t.Fatalf("seq %d not fresh", seq)
		}
		if seq > minSlots && cap(*slot) == 0 {
			t.Fatalf("seq %d reuses a slot but not the array its predecessor left", seq)
		}
		*slot = append((*slot)[:0], int(seq))
	}
	for seq := uint64(1); seq <= 16; seq++ {
		put(seq)
		w.Retire(seq)
	}
	// Grow while 17 is open: its value moves with it, and the arrays in the
	// three empty slots move to where 18, 19 and 20 will look for them.
	put(17)
	if far, _ := w.Open(17 + 64); far == nil || len(w.vals) <= minSlots {
		t.Fatalf("open ahead: slot %v, ring of %d", far, len(w.vals))
	}
	if got := w.Get(17); got == nil || (*got)[0] != 17 {
		t.Fatalf("seq 17 lost its value in the growth: %v", got)
	}
	for seq := uint64(18); seq <= 20; seq++ {
		put(seq)
	}
}
