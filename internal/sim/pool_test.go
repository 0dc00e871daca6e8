package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// TestEventPoolReuse: a fired event's *Event is recycled for later
// schedulings (the pool-miss counter plateaus), and its generation bump
// makes retained handles stale.
func TestEventPoolReuse(t *testing.T) {
	l := NewLoop()
	e1 := l.At(1, "a", func() {})
	h1 := e1.Handle()
	if !h1.Pending() {
		t.Fatal("fresh handle should be pending")
	}
	if err := l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h1.Pending() {
		t.Fatal("handle must go stale after fire")
	}
	if got := l.EventAllocs(); got != 1 {
		t.Fatalf("EventAllocs = %d, want 1", got)
	}
	e2 := l.At(2, "b", func() {})
	if e2 != e1 {
		t.Fatal("fired event was not recycled")
	}
	if h1.Pending() {
		t.Fatal("stale handle must not resurrect on pointer reuse")
	}
	if got := l.EventAllocs(); got != 1 {
		t.Fatalf("EventAllocs after reuse = %d, want 1", got)
	}
	// Steady-state: a self-re-arming timer chain plateaus at two Events
	// (the firing event is recycled only after its callback — which
	// schedules the next tick — returns), no matter how many ticks run.
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 100 {
			l.After(1, "tick", tick)
		}
	}
	l.After(1, "tick", tick)
	if err := l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l.EventAllocs(); got > 2 {
		t.Fatalf("EventAllocs after 100 sequential timers = %d, want <= 2", got)
	}
}

// TestCancelRecyclesEvent: canceling returns the event to the pool; a stale
// handle cancel is a no-op even after the pooled Event is re-armed by an
// unrelated scheduling.
func TestCancelRecyclesEvent(t *testing.T) {
	l := NewLoop()
	e := l.At(5, "x", func() { t.Fatal("canceled event fired") })
	h := e.Handle()
	l.Cancel(e)
	if h.Pending() {
		t.Fatal("handle pending after cancel")
	}
	// The recycled Event now carries an unrelated callback.
	fired := false
	e2 := l.At(3, "y", func() { fired = true })
	if e2 != e {
		t.Fatal("canceled event was not recycled")
	}
	// Canceling through the STALE handle must not kill the new event.
	l.CancelHandle(h)
	if err := l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("stale CancelHandle killed an unrelated re-armed event")
	}
}

// TestRescheduleSemantics: a pending event moves and keeps its callback; a
// fired or canceled event returns nil and is NOT silently re-armed from its
// (stale, possibly recycled) name/closure pair.
func TestRescheduleSemantics(t *testing.T) {
	l := NewLoop()
	var at Time
	e := l.At(5, "x", func() { at = l.Now() })
	if got := l.Reschedule(e, 9); got != e {
		t.Fatalf("Reschedule(pending) = %v, want the same armed event", got)
	}
	if err := l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 9 {
		t.Fatalf("rescheduled event fired at %v, want 9", at)
	}
	// Fired: nothing to re-arm.
	if got := l.Reschedule(e, 20); got != nil {
		t.Fatalf("Reschedule(fired) = %v, want nil", got)
	}
	if l.Pending() != 0 {
		t.Fatal("Reschedule(fired) re-armed a stale event")
	}
	// Canceled: same rule.
	e2 := l.At(30, "y", func() {})
	l.Cancel(e2)
	if got := l.Reschedule(e2, 40); got != nil {
		t.Fatalf("Reschedule(canceled) = %v, want nil", got)
	}
	if l.Pending() != 0 {
		t.Fatal("Reschedule(canceled) re-armed a stale event")
	}
}

// TestRescheduleInsideCallback: the firing event is detached during its own
// callback; rescheduling it there must not re-arm it.
func TestRescheduleInsideCallback(t *testing.T) {
	l := NewLoop()
	var e *Event
	fired := 0
	e = l.At(1, "self", func() {
		fired++
		if got := l.Reschedule(e, 5); got != nil {
			t.Errorf("Reschedule(self) during callback = %v, want nil", got)
		}
	})
	if err := l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
}

// TestAtTimerTypedCallback: AtTimer passes its argument words through and
// interleaves deterministically with closure events.
func TestAtTimerTypedCallback(t *testing.T) {
	l := NewLoop()
	type rec struct {
		label string
		u     uint64
	}
	var got []rec
	l.AtTimer(2, "typed", func(a, b any, u uint64) {
		got = append(got, rec{a.(string) + b.(string), u})
	}, "x", "y", 42)
	l.At(1, "plain", func() { got = append(got, rec{"plain", 0}) })
	l.AfterTimer(3, "typed2", func(a, _ any, u uint64) {
		got = append(got, rec{a.(string), u})
	}, "z", nil, 7)
	if err := l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []rec{{"plain", 0}, {"xy", 42}, {"z", 7}}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// shadowEvent / shadowHeap: the container/heap reference model the rebuilt
// scheduler is checked against.
type shadowEvent struct {
	when  Time
	seq   uint64
	id    int
	index int
}

type shadowHeap []*shadowEvent

func (h shadowHeap) Len() int { return len(h) }
func (h shadowHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h shadowHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *shadowHeap) Push(x any) {
	e := x.(*shadowEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *shadowHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// TestHeapShadowModel drives 10k random At/Cancel/Reschedule operations
// through the 4-ary pooled heap and a container/heap shadow sharing one
// logical sequence counter, then verifies both fire the same ids in the
// same order.
func TestHeapShadowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLoop()
	var sh shadowHeap
	var seq uint64

	var firedReal []int
	type livePair struct {
		h  Handle
		se *shadowEvent
	}
	var live []livePair

	nextID := 0
	const ops = 10000
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 6: // schedule
			when := Time(rng.Intn(1 << 20))
			id := nextID
			nextID++
			e := l.At(when, "s", func() { firedReal = append(firedReal, id) })
			se := &shadowEvent{when: e.When, seq: seq, id: id}
			seq++
			heap.Push(&sh, se)
			live = append(live, livePair{h: e.Handle(), se: se})
		case k < 8: // cancel a random live-ish entry (possibly stale)
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			p := live[i]
			wasPending := p.h.Pending()
			l.CancelHandle(p.h)
			if wasPending != (p.se.index >= 0) {
				t.Fatalf("pending mismatch: real %v shadow %v", wasPending, p.se.index >= 0)
			}
			if p.se.index >= 0 {
				heap.Remove(&sh, p.se.index)
			}
			live = append(live[:i], live[i+1:]...)
		default: // reschedule a random entry (possibly stale)
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			p := live[i]
			when := Time(rng.Intn(1 << 20))
			if !p.h.Pending() {
				// Stale: the pooled Event may already be someone else's;
				// per the aliasing rule it must not be touched. Drop it.
				live = append(live[:i], live[i+1:]...)
				continue
			}
			if when < l.Now() {
				when = l.Now()
			}
			if got := l.Reschedule(p.h.e, when); got == nil {
				t.Fatal("Reschedule(pending) returned nil")
			}
			p.se.when = when
			p.se.seq = seq
			seq++
			// The real loop consumed one sequence number too; mirror it.
			heap.Fix(&sh, p.se.index)
		}
		// Occasionally advance time and fire a prefix.
		if op%97 == 0 {
			horizon := l.Now() + Time(rng.Intn(1<<18))
			if err := l.RunUntil(horizon); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
			for len(sh) > 0 && sh[0].when <= horizon {
				se := heap.Pop(&sh).(*shadowEvent)
				expect := se.id
				if len(firedReal) == 0 {
					t.Fatalf("shadow fired id %d, real loop fired nothing", expect)
				}
				if firedReal[0] != expect {
					t.Fatalf("fire order diverged: real %d shadow %d", firedReal[0], expect)
				}
				firedReal = firedReal[1:]
			}
			if len(firedReal) != 0 {
				t.Fatalf("real loop fired %d extra events", len(firedReal))
			}
		}
	}
	// Drain both completely.
	if err := l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for len(sh) > 0 {
		se := heap.Pop(&sh).(*shadowEvent)
		if len(firedReal) == 0 {
			t.Fatalf("shadow fired id %d, real loop fired nothing", se.id)
		}
		if firedReal[0] != se.id {
			t.Fatalf("drain order diverged: real %d shadow %d", firedReal[0], se.id)
		}
		firedReal = firedReal[1:]
	}
	if len(firedReal) != 0 {
		t.Fatalf("real loop fired %d extra events", len(firedReal))
	}
}

func rearmTimer(a, _ any, u uint64) {
	l := a.(*Loop)
	l.AtTimer(l.Now()+Time(u), "rearm", rearmTimer, l, nil, u)
}

// TestSmallLoopAllocatesWhatItDid: a loop that never holds wheelMin events
// is the single heap it was before the wheel — no wheel, no second heap, and
// the same 111 allocations for NewLoop, 100 armed timers and 100 fire/re-arm
// cycles (the Loop, 100 Events, nine doublings of the heap's backing array,
// one free-list slot) that the pre-wheel loop made.
func TestSmallLoopAllocatesWhatItDid(t *testing.T) {
	var l *Loop
	allocs := testing.AllocsPerRun(10, func() {
		l = NewLoop()
		for i := 1; i <= 100; i++ {
			l.AtTimer(Time(i)*Microsecond, "rearm", rearmTimer, l, nil, uint64(i)*100)
		}
		for i := 0; i < 100; i++ {
			l.ProcessNextEvent()
		}
	})
	if allocs != 111 {
		t.Errorf("a 100-event loop made %v allocations, want 111", allocs)
	}
	if l.wheel != nil || cap(l.bot) != 0 || l.Pending() != 100 {
		t.Errorf("wheel built %v, bot capacity %d, pending %d: want only the far heap, 100 deep", l.wheel != nil, cap(l.bot), l.Pending())
	}
}

// TestSteadyStateAllocatesNothing: at 2,000 pending events re-armed up to
// 1 ms ahead — the wheel and bot in use for every one of them — 100,000
// fire/re-arm cycles allocate nothing: buckets are lists through the events
// themselves, bot reuses its backing array, and the event pool does not grow.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	l := NewLoop()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		l.AtTimer(Time(rng.Intn(int(Millisecond))), "rearm", rearmTimer, l, nil, uint64(1+rng.Intn(int(Millisecond))))
	}
	cycles := func() {
		for i := 0; i < 100000; i++ {
			l.ProcessNextEvent()
		}
	}
	cycles()
	if l.wheel == nil || l.wheel.n < 1000 {
		t.Fatalf("after warm-up the wheel holds %v of %d events; the test is not exercising it", l.wheel, l.Pending())
	}
	before := l.EventAllocs()
	if allocs := testing.AllocsPerRun(1, cycles); allocs != 0 {
		t.Errorf("100,000 steady-state cycles made %v allocations, want 0", allocs)
	}
	if got := l.EventAllocs(); got != before || l.Pending() != 2000 {
		t.Errorf("EventAllocs moved %d → %d, pending %d (want 2000)", before, got, l.Pending())
	}
}
