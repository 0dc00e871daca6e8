package sim

import (
	"errors"
	"fmt"
)

// ErrStopped is returned by Run when the loop was halted by Stop before the
// horizon or event exhaustion was reached.
var ErrStopped = errors.New("sim: loop stopped")

// TimerFunc is the typed-callback form of an event: instead of capturing
// state in a per-event closure (one heap allocation per scheduling), the
// callback is a package-level function and its state rides in the event's
// two pointer slots and one scalar slot. The hot per-packet paths (chunk
// timers, device-model processing, proposal deadlines, fabric delivery)
// schedule exclusively through this form.
type TimerFunc func(a, b any, u uint64)

// Event is a scheduled callback. Events fire in (When, order-of-scheduling)
// order; the sequence number makes the ordering total and deterministic.
//
// Events are pooled: once an event fires or is canceled, the loop recycles
// its *Event for a future scheduling. The aliasing rule is therefore strict:
// a caller must never retain or dereference an *Event after it has fired or
// been canceled — the pointer may already be someone else's event. Code that
// holds an event across callbacks must either clear its reference inside the
// callback (before anything else can schedule) or hold a generation-checked
// Handle, which detects recycling and turns stale cancels into no-ops.
// In race builds the pool additionally poisons recycled events and verifies
// freelist discipline on every checkout.
type Event struct {
	When Time   // fire time; read-only for callers
	Name string // diagnostic label, not used for ordering

	fn   func()
	tfn  TimerFunc
	a, b any
	u    uint64

	// Ordering key for same-timestamp events. Local events (band 0) carry
	// k1 = the time they were scheduled at and k2 = 0, which orders them by
	// scheduling sequence exactly as a bare sequence number would; a caller
	// that realises a chain of would-be events lazily (AtKeyedTimer) states
	// the key its event would have had instead. Fabric arrivals (band 1,
	// via AtArrivalTimer) order by (k1, k2) — a stable hash of the directed
	// link and the per-link send counter — so the order of same-time
	// arrivals from different sources does not depend on which shard's loop
	// they were scheduled on, or in what order a coordinator injected them.
	band uint8
	k1   uint64
	k2   uint64

	seq   uint64
	gen   uint64 // bumped on every recycle; Handle staleness check
	index int32  // heap index; -1 once fired, canceled, or free
}

// Canceled reports whether the event was canceled or has already fired.
func (e *Event) Canceled() bool { return e.index < 0 }

// Handle returns a weak, generation-checked reference to the event, safe to
// retain indefinitely: once the event fires or is canceled (and its *Event
// is recycled for an unrelated scheduling), the handle goes stale and
// Pending reports false. Take the handle immediately after scheduling, while
// the event is still pending.
func (e *Event) Handle() Handle { return Handle{e: e, gen: e.gen} }

// Handle is a weak reference to a pooled event. The zero Handle is valid and
// permanently stale. Unlike a raw *Event, a Handle may be kept after the
// event fires — the generation check makes stale use harmless.
type Handle struct {
	e   *Event
	gen uint64
}

// Pending reports whether the handle still refers to a live, queued event.
func (h Handle) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.index >= 0
}

// raceChecks enables pool-poisoning assertions; set by loop_race.go in
// -race builds.
var raceChecks = false

// Loop is a deterministic discrete-event loop built on a hand-rolled 4-ary
// indexed min-heap over a pooled event freelist: no container/heap interface
// indirection, no per-push boxing, and no steady-state Event garbage. The
// zero value is not usable; construct with NewLoop.
type Loop struct {
	now     Time
	pq      []slot
	free    []*Event
	seq     uint64
	stopped bool
	fired   uint64
	horizon Time
	allocs  uint64 // pool misses: distinct Events ever allocated

	// cur is the event being fired (nil between events); drained records
	// that, with none firing, every event at now has run — a Run returned
	// there — rather than none of them (RunBefore parked the loop there).
	// Together they place "here" in the total event order for Passed.
	cur     *Event
	drained bool
}

// NewLoop returns an empty loop positioned at time zero.
func NewLoop() *Loop {
	return &Loop{horizon: Never}
}

// Now returns the current simulated fabric time.
func (l *Loop) Now() Time { return l.now }

// Fired returns the number of events executed so far.
func (l *Loop) Fired() uint64 { return l.fired }

// Pending returns the number of events still queued.
func (l *Loop) Pending() int { return len(l.pq) }

// EventAllocs returns how many distinct Event structs the loop has ever
// allocated — the pool-miss count. Steady-state workloads should see this
// plateau at the maximum concurrently-pending event count (tests).
func (l *Loop) EventAllocs() uint64 { return l.allocs }

// acquire checks an event out of the pool.
func (l *Loop) acquire() *Event {
	if n := len(l.free); n > 0 {
		e := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		if raceChecks && (e.index != -1 || e.fn != nil || e.tfn != nil || e.a != nil || e.b != nil || e.band != 0 || e.k1 != 0 || e.k2 != 0) {
			panic(fmt.Sprintf("sim: corrupted pooled event %+v — retained after fire/cancel?", e))
		}
		return e
	}
	l.allocs++
	return &Event{index: -1}
}

// release recycles a fired or canceled event. The generation bump is what
// invalidates outstanding Handles.
func (l *Loop) release(e *Event) {
	e.gen++
	e.fn = nil
	e.tfn = nil
	e.a = nil
	e.b = nil
	e.u = 0
	e.band = 0
	e.k1 = 0
	e.k2 = 0
	if raceChecks {
		e.Name = "sim:recycled"
		e.When = -1 << 60
	}
	l.free = append(l.free, e)
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and is reported by scheduling at the current instant
// instead (events never run backwards). The returned *Event is valid only
// until the event fires or is canceled (see the pooling rule on Event).
func (l *Loop) At(t Time, name string, fn func()) *Event {
	if t < l.now {
		t = l.now
	}
	e := l.acquire()
	e.When = t
	e.Name = name
	e.fn = fn
	e.k1 = uint64(l.now)
	l.insert(e)
	return e
}

// AtTimer schedules a typed callback at absolute time t: fn(a, b, u) runs at
// t with no closure allocation. Same clamping and pooling rules as At.
func (l *Loop) AtTimer(t Time, name string, fn TimerFunc, a, b any, u uint64) *Event {
	return l.AtKeyedTimer(t, name, fn, a, b, u, uint64(l.now), 0)
}

// AtKeyedTimer schedules a typed local callback at absolute time t that
// orders among same-time local events as if it had been scheduled at time
// k1 (which may lie in the future), after every event really scheduled
// then, and among other keyed events of equal k1 by k2 (> 0). It is for a
// caller that stands in for a chain of events it did not schedule — guest
// execution arms one event for the last of a run of chunks, which must
// fire where the chain's own last event would have: a chunk's event is
// scheduled when its predecessor fires, so k1 is the last chunk's start.
// Passed answers the same question for the links that were never armed.
func (l *Loop) AtKeyedTimer(t Time, name string, fn TimerFunc, a, b any, u, k1, k2 uint64) *Event {
	if t < l.now {
		t = l.now
	}
	e := l.acquire()
	e.When = t
	e.Name = name
	e.tfn = fn
	e.a = a
	e.b = b
	e.u = u
	e.k1 = k1
	e.k2 = k2
	l.insert(e)
	return e
}

// Passed reports whether a local event keyed (t, k1, k2) — see AtKeyedTimer
// — would already have fired: t lies in the past, or t is now and the event
// sorts before the one being fired. A fabric arrival fires after every
// local event of its instant; a local event fires after the keyed one iff
// it was scheduled after k1 (on equal keys the real event goes first).
// Between events the loop is either parked ahead of its instant (RunBefore,
// a coordinator barrier: nothing at now has fired) or has drained it.
func (l *Loop) Passed(t Time, k1, k2 uint64) bool {
	if t != l.now {
		return t < l.now
	}
	e := l.cur
	if e == nil {
		return l.drained
	}
	if e.band != 0 {
		return true
	}
	if e.k1 != k1 {
		return e.k1 > k1
	}
	return e.k2 > k2
}

// Leading reports whether the caller runs ahead of every event at Now():
// no event is firing and none at this instant has fired yet (a coordinator
// barrier, or a loop that has not run).
func (l *Loop) Leading() bool { return l.cur == nil && !l.drained }

// AtArrivalTimer schedules a fabric-arrival callback at absolute time t,
// ordered among same-time arrivals by the partition-invariant key (k1, k2)
// — by convention a stable hash of the directed link and the per-link send
// counter — rather than by scheduling order. Local events at the same time
// run first. This is what keeps cross-shard merges byte-identical to the
// single-loop schedule: the key travels with the packet, so it does not
// matter which shard's loop the arrival lands on.
func (l *Loop) AtArrivalTimer(t Time, name string, fn TimerFunc, a, b any, u, k1, k2 uint64) *Event {
	if t < l.now {
		t = l.now
	}
	e := l.acquire()
	e.When = t
	e.Name = name
	e.tfn = fn
	e.a = a
	e.b = b
	e.u = u
	e.band = 1
	e.k1 = k1
	e.k2 = k2
	l.insert(e)
	return e
}

// After schedules fn to run d nanoseconds from now.
func (l *Loop) After(d Time, name string, fn func()) *Event {
	return l.At(l.now+d, name, fn)
}

// AfterTimer schedules a typed callback d nanoseconds from now.
func (l *Loop) AfterTimer(d Time, name string, fn TimerFunc, a, b any, u uint64) *Event {
	return l.AtTimer(l.now+d, name, fn, a, b, u)
}

// Cancel removes a pending event and recycles it. Canceling a fired or
// already-canceled event is a no-op. The caller must drop its reference:
// after Cancel the *Event belongs to the pool.
func (l *Loop) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	l.remove(int(e.index))
	l.release(e)
}

// CancelHandle cancels through a weak handle: a no-op when the handle is
// stale (the event already fired, was canceled, or its Event was recycled).
func (l *Loop) CancelHandle(h Handle) {
	if h.e == nil || h.e.gen != h.gen {
		return
	}
	l.Cancel(h.e)
}

// Reschedule moves a pending event to a new time, keeping its callback, and
// returns the (same) armed event. A fired or canceled event cannot be
// rescheduled — its pooled Event may already carry an unrelated callback —
// so Reschedule returns nil and the caller must schedule a fresh event.
// (Historically this path silently re-armed the stale name/closure pair.)
func (l *Loop) Reschedule(e *Event, t Time) *Event {
	if e == nil || e.index < 0 {
		return nil
	}
	if t < l.now {
		t = l.now
	}
	e.When = t
	if e.band == 0 {
		e.k1, e.k2 = uint64(l.now), 0
	}
	e.seq = l.seq
	l.seq++
	l.fix(int(e.index))
	return e
}

// RescheduleHandle moves the pending event behind a weak handle; it reports
// false, having done nothing, when the handle is stale.
func (l *Loop) RescheduleHandle(h Handle, t Time) bool {
	return h.Pending() && l.Reschedule(h.e, t) != nil
}

// slot is one heap entry: the fire time rides inline, so a sift reads four
// children from one cache line and dereferences events only to break ties.
type slot struct {
	when Time
	e    *Event
}

// less orders slots by (When, band, k1, k2, seq): the deterministic total
// order. Local events (band 0, k1 = scheduling time, k2 = 0) at the same
// instant keep their scheduling order; fabric arrivals (band 1) at the same
// instant order by the partition-invariant (link hash, link seq) key, after
// locals. The key — not insertion order — decides, so the order is
// identical whether the arrivals were scheduled by one loop or merged in
// from K shards.
func less(a, b slot) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	x, y := a.e, b.e
	if x.band != y.band {
		return x.band < y.band
	}
	if x.k1 != y.k1 {
		return x.k1 < y.k1
	}
	if x.k2 != y.k2 {
		return x.k2 < y.k2
	}
	return x.seq < y.seq
}

// insert assigns the scheduling sequence number and pushes onto the heap.
func (l *Loop) insert(e *Event) {
	e.seq = l.seq
	l.seq++
	i := len(l.pq)
	l.pq = append(l.pq, slot{e.When, e})
	e.index = int32(i)
	l.siftUp(i)
}

// siftUp restores the heap property upward from i (4-ary: parent (i-1)/4).
func (l *Loop) siftUp(i int) {
	s := l.pq[i]
	for i > 0 {
		p := (i - 1) >> 2
		ps := l.pq[p]
		if less(ps, s) {
			break
		}
		l.pq[i] = ps
		ps.e.index = int32(i)
		i = p
	}
	l.pq[i] = s
	s.e.index = int32(i)
}

// siftDown restores the heap property downward from i (children 4i+1..4i+4).
func (l *Loop) siftDown(i int) {
	s := l.pq[i]
	n := len(l.pq)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, ms := c, l.pq[c]
		hi := c + 4
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if ks := l.pq[k]; less(ks, ms) {
				m, ms = k, ks
			}
		}
		if less(s, ms) {
			break
		}
		l.pq[i] = ms
		ms.e.index = int32(i)
		i = m
	}
	l.pq[i] = s
	s.e.index = int32(i)
}

// fix re-positions the event at i after its key changed.
func (l *Loop) fix(i int) {
	e := l.pq[i].e
	l.pq[i].when = e.When
	l.siftUp(i)
	if int(e.index) == i {
		l.siftDown(i)
	}
}

// remove detaches the event at heap index i (it is NOT released).
func (l *Loop) remove(i int) {
	n := len(l.pq) - 1
	e := l.pq[i].e
	last := l.pq[n]
	l.pq[n] = slot{}
	l.pq = l.pq[:n]
	if i != n {
		l.pq[i] = last
		last.e.index = int32(i)
		l.fix(i)
	}
	e.index = -1
}

// pop detaches and returns the minimum event (it is NOT released).
func (l *Loop) pop() *Event {
	top := l.pq[0].e
	n := len(l.pq) - 1
	last := l.pq[n]
	l.pq[n] = slot{}
	l.pq = l.pq[:n]
	if n > 0 {
		l.pq[0] = last
		last.e.index = 0
		l.siftDown(0)
	}
	top.index = -1
	return top
}

// Stop halts Run after the currently executing event returns.
func (l *Loop) Stop() { l.stopped = true }

// HasPendingEvents reports whether any event is still queued. With
// PeekNextEventTime and ProcessNextEvent it forms the steppable interface a
// shard coordinator drives: the coordinator decides which loop advances,
// the loop only ever executes its own minimum.
func (l *Loop) HasPendingEvents() bool { return len(l.pq) > 0 }

// PeekNextEventTime returns the fire time of the earliest pending event,
// or Never when the queue is empty.
func (l *Loop) PeekNextEventTime() Time {
	if len(l.pq) == 0 {
		return Never
	}
	return l.pq[0].when
}

// ProcessNextEvent pops and executes the earliest pending event, advancing
// the loop clock to its fire time. It must not be called on an empty queue.
func (l *Loop) ProcessNextEvent() {
	next := l.pop()
	l.now = next.When
	l.fired++
	// A callback may run this loop further (a nested RunUntil); the outer
	// event is the one firing again once that returns.
	outer := l.cur
	l.cur = next
	// The event is recycled only after the callback returns: during the
	// callback, Cancel/Reschedule on the (detached) event are safe
	// no-ops, and nothing scheduled inside the callback can be handed
	// this *Event while legacy references to it may still be live.
	if tfn := next.tfn; tfn != nil {
		tfn(next.a, next.b, next.u)
	} else if fn := next.fn; fn != nil {
		fn()
	}
	l.cur = outer
	l.release(next)
}

// Run executes events in order until the queue is empty, the horizon is
// passed, or Stop is called. It returns ErrStopped in the latter case.
func (l *Loop) Run() error {
	l.stopped = false
	for l.HasPendingEvents() {
		if l.stopped {
			return ErrStopped
		}
		if l.PeekNextEventTime() > l.horizon {
			l.now = l.horizon
			l.drained = true
			return nil
		}
		l.ProcessNextEvent()
	}
	l.drained = true
	return nil
}

// RunUntil executes events with When <= t and leaves the loop positioned
// at t (or at the time of the last fired event if the queue drains early;
// the loop time still advances to t).
func (l *Loop) RunUntil(t Time) error {
	prev := l.horizon
	l.horizon = t
	err := l.Run()
	l.horizon = prev
	if err == nil && l.now < t {
		l.now = t
	}
	return err
}

// RunBefore executes events with When strictly less than t and leaves the
// loop positioned at t. This is the shard-window primitive: a conservative
// coordinator grants a shard the half-open window [now, t), with events at
// exactly t held for after the next barrier so that barrier-time control
// actions run first. A no-op when t <= now.
func (l *Loop) RunBefore(t Time) error {
	if t <= l.now {
		return nil
	}
	err := l.RunUntil(t - 1)
	if err == nil {
		l.now = t
		l.drained = false
	}
	return err
}

// String summarizes loop state for diagnostics.
func (l *Loop) String() string {
	return fmt.Sprintf("loop{now=%s fired=%d pending=%d}", l.now, l.fired, len(l.pq))
}
