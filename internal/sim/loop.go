package sim

import (
	"errors"
	"fmt"
	"math/bits"
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
	tier  uint8  // which tier of the scheduler holds the event (see Loop)
	index int32  // heap index (0 in a bucket); -1 once fired, canceled, or free

	next, prev *Event // bucket list links while tier == inWheel
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

// Loop is a deterministic discrete-event loop over a pooled event freelist:
// no container/heap interface indirection, no per-push boxing, and no
// steady-state Event garbage. The zero value is not usable; construct with
// NewLoop.
//
// Its queue is a timing wheel between two hand-rolled 4-ary indexed
// min-heaps. An event due within one turn of the wheel is filed unsorted, in
// O(1), in the bucket of its fire time; when the clock reaches a bucket its
// events move into the heap bot, which also takes every later insert at or
// before that bucket, so only the bucket that is firing is ever sorted. An
// event due later than one turn waits in the heap far and fires from there.
// The next event is the lesser of the two heap tops. Whatever tier holds an
// event, the fire order is the total order of less — the tiers change what a
// step costs, never which event it picks. A loop that has never held
// wheelMin events has no wheel: everything is in far, a single heap.
type Loop struct {
	now     Time
	far     evHeap // events a turn or more ahead, and all of them before the wheel is built
	bot     evHeap // events at or before bucket wheel.cur
	wheel   *wheel // nil until the loop first holds wheelMin events
	free    []*Event
	seq     uint64
	stopped bool
	fired   uint64
	horizon Time
	allocs  uint64 // pool misses: distinct Events ever allocated

	// cur is the event being fired (nil between events). here is where the
	// loop stands in its instant's event order, for Passed: just after the
	// event fired last (in its callback, and after it until the next one
	// fires if ProcessNextEvent stepped it), after every event (a Run
	// returned there: band drained), or before every one (the zero place:
	// RunBefore parked the loop there, or it has not run).
	cur  *Event
	here place
}

// place is a point in one instant's event order: an event's band + 1, k1
// and k2.
type place struct {
	band   uint8
	k1, k2 uint64
}

const drained = 3 // the band of a place after every event

// NewLoop returns an empty loop positioned at time zero.
func NewLoop() *Loop {
	return &Loop{horizon: Never}
}

// Now returns the current simulated fabric time.
func (l *Loop) Now() Time { return l.now }

// Fired returns the number of events executed so far.
func (l *Loop) Fired() uint64 { return l.fired }

// Pending returns the number of events still queued, in every tier.
func (l *Loop) Pending() int {
	n := len(l.far) + len(l.bot)
	if l.wheel != nil {
		n += l.wheel.n
	}
	return n
}

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
		if raceChecks && (e.index != -1 || e.fn != nil || e.tfn != nil || e.a != nil || e.b != nil || e.band != 0 || e.k1 != 0 || e.k2 != 0 || e.next != nil || e.prev != nil) {
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
// Between events the loop stands just after the event it fired last, or is
// parked ahead of its instant (RunBefore, a coordinator barrier: nothing at
// now has fired), or has drained it.
func (l *Loop) Passed(t Time, k1, k2 uint64) bool { return l.passed(t, place{1, k1, k2}) }

// ArrivalPassed is Passed for a fabric arrival keyed (t, k1, k2) — see
// AtArrivalTimer — that was never scheduled: a caller that holds an arrival
// instead (netsim.Holder) asks whether it would already have fired. At t ==
// now it has iff the event being fired is an arrival with a greater key,
// since arrivals fire after every local event of their instant; between
// events the same holds for the event fired last.
func (l *Loop) ArrivalPassed(t Time, k1, k2 uint64) bool { return l.passed(t, place{2, k1, k2}) }

// passed reports whether an event at (t, p) that was never scheduled sorts
// before here, as after a real event of equal key.
func (l *Loop) passed(t Time, p place) bool {
	h := l.here
	switch {
	case t != l.now:
		return t < l.now
	case p.band != h.band:
		return p.band < h.band
	case p.k1 != h.k1:
		return p.k1 < h.k1
	}
	return p.k2 < h.k2
}

// Firing reports whether an event of this loop is being fired: the caller
// runs inside a window, not at a barrier or between runs.
func (l *Loop) Firing() bool { return l.cur != nil }

// Leading reports whether the caller runs ahead of every event at Now():
// no event is firing and none at this instant has fired yet (a coordinator
// barrier, or a loop that has not run).
func (l *Loop) Leading() bool { return l.cur == nil && l.here == place{} }

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
	l.detach(e)
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
	// An event that stays in its heap is fixed in place; any other move
	// leaves its tier first, while When still says which bucket holds it.
	to := l.place(t)
	stays := to == e.tier && to != inWheel
	if !stays {
		l.detach(e)
	}
	e.When = t
	if e.band == 0 {
		e.k1, e.k2 = uint64(l.now), 0
	}
	if !stays {
		l.insert(e)
		return e
	}
	e.seq = l.seq
	l.seq++
	l.heapOf(to).fix(int(e.index))
	return e
}

// RescheduleHandle moves the pending event behind a weak handle; it reports
// false, having done nothing, when the handle is stale.
func (l *Loop) RescheduleHandle(h Handle, t Time) bool {
	return h.Pending() && l.Reschedule(h.e, t) != nil
}

// The wheel's geometry. One turn is 4,096 buckets of 512 ns = 2.1 ms, just
// over the 2 ms pacing period, so beacons, packet arrivals and chunk ends —
// nearly every event of a fleet — are filed in a bucket and never in far. At
// that turn the width hardly matters: 128 ns to 2 µs all measured 0.055–0.063
// wall-s per sim-s on bench/'s fleet-ops and 0.87–0.92 on cloud-idle (the
// single heap: 0.072 and 1.02), because a bucket holds an event or two at the
// depths the fleets run at (273–4,505 pending per loop) and bot sorts the
// fifty it holds at 100,000 pending for less than far's nine levels of
// four-way compares. 512 ns keeps the array at 33 KB. It is built only when a
// loop first holds wheelMin events: built in NewLoop it cost paper-figs,
// which makes dozens of 3-host clusters of a few events each, +60 % of its
// set-up, and at a hundred events the single heap is as fast (80 ns a
// push+pop either way).
const (
	wheelShift = 9
	wheelSize  = 4096
	wheelMask  = wheelSize - 1
	wheelMin   = 128
)

// Event.tier: which part of the queue holds a pending event.
const (
	inFar uint8 = iota
	inBot
	inWheel
)

// wheel is wheelSize unsorted buckets, each an intrusive list through
// Event.next/prev. Bucket numbers are absolute (When >> wheelShift) and map
// to a slot modulo wheelSize; the wheel holds only buckets in (cur,
// cur+wheelSize), so no two of them share a slot and cur's own slot is
// always empty.
type wheel struct {
	cur   int64                  // the bucket bot stands for: the last one taken, or the clock's when all was empty
	n     int                    // events in all buckets
	occ   [wheelSize / 64]uint64 // bit s set: slot s is not empty
	slots [wheelSize]*Event
}

func bucketOf(t Time) int64 { return int64(t >> wheelShift) }

func slotOf(e *Event) int { return int(bucketOf(e.When) & wheelMask) }

func (w *wheel) link(e *Event) {
	s := slotOf(e)
	head := w.slots[s]
	if head != nil {
		head.prev = e
	} else {
		w.occ[s>>6] |= 1 << (s & 63)
	}
	e.next = head
	w.slots[s] = e
	e.tier, e.index = inWheel, 0
	w.n++
}

func (w *wheel) unlink(e *Event) {
	if e.next != nil {
		e.next.prev = e.prev
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s := slotOf(e)
		w.slots[s] = e.next
		if e.next == nil {
			w.occ[s>>6] &^= 1 << (s & 63)
		}
	}
	e.next, e.prev = nil, nil
	w.n--
}

// turn moves the next occupied bucket into the empty heap bot and advances
// cur to it. The wheel must hold an event.
func (l *Loop) turn() {
	w := l.wheel
	from := int(w.cur+1) & wheelMask
	i := from >> 6
	word := w.occ[i] &^ (1<<(from&63) - 1)
	for word == 0 {
		// Wraps at most once, back onto the first word's low bits: the
		// far end of the turn.
		i = (i + 1) & (len(w.occ) - 1)
		word = w.occ[i]
	}
	s := i<<6 + bits.TrailingZeros64(word)
	w.cur += int64((s-from)&wheelMask) + 1
	e := w.slots[s]
	w.slots[s] = nil
	w.occ[i] &^= 1 << (s & 63)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		e.tier, e.index = inBot, int32(len(l.bot))
		l.bot = append(l.bot, slot{e.When, e})
		e = next
	}
	w.n -= len(l.bot)
	for i := (len(l.bot) - 2) >> 2; i >= 0; i-- {
		l.bot.siftDown(i)
	}
}

// place says which tier an event firing at t belongs in.
func (l *Loop) place(t Time) uint8 {
	if w := l.wheel; w != nil {
		d := bucketOf(t) - w.cur
		if d <= 0 {
			return inBot
		}
		if d < wheelSize {
			return inWheel
		}
	}
	return inFar
}

// heapOf returns the heap of a heap tier.
func (l *Loop) heapOf(tier uint8) *evHeap {
	if tier == inBot {
		return &l.bot
	}
	return &l.far
}

// insert assigns the scheduling sequence number and files the detached
// event in the tier of its When. The push that brings far to wheelMin events
// builds the wheel; those events stay in far and fire from there.
func (l *Loop) insert(e *Event) {
	e.seq = l.seq
	l.seq++
	switch l.place(e.When) {
	case inWheel:
		l.wheel.link(e)
	case inBot:
		e.tier = inBot
		l.bot.push(e)
	default:
		e.tier = inFar
		l.far.push(e)
		if l.wheel == nil && len(l.far) >= wheelMin {
			l.wheel = &wheel{cur: bucketOf(l.now)}
		}
	}
}

// detach takes a pending event out of its tier (it is NOT released).
func (l *Loop) detach(e *Event) {
	if e.tier == inWheel {
		l.wheel.unlink(e)
	} else {
		l.heapOf(e.tier).remove(int(e.index))
	}
	e.index = -1
}

// min returns the heap whose top is the loop's earliest event, nil when no
// event is pending. With bot empty the earliest wheel event is in the next
// occupied bucket, so that bucket is taken (and sorted) here.
func (l *Loop) min() *evHeap {
	if len(l.bot) == 0 {
		w := l.wheel
		switch {
		case w != nil && w.n > 0:
			l.turn()
		case len(l.far) == 0:
			return nil
		default:
			if w != nil {
				// Nothing is filed relative to cur, and a run of far
				// events or a RunUntil past them all may have left it a
				// turn behind the clock, where every insert would be far.
				w.cur = bucketOf(l.now)
			}
			return &l.far
		}
	}
	if len(l.far) > 0 && less(l.far[0], l.bot[0]) {
		return &l.far
	}
	return &l.bot
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

// evHeap is a 4-ary indexed min-heap of events ordered by less; each event's
// index field tracks its position.
type evHeap []slot

func (h *evHeap) push(e *Event) {
	*h = append(*h, slot{e.When, e})
	h.siftUp(len(*h) - 1)
}

// siftUp restores the heap property upward from i (4-ary: parent (i-1)/4).
func (h evHeap) siftUp(i int) {
	s := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		ps := h[p]
		if less(ps, s) {
			break
		}
		h[i] = ps
		ps.e.index = int32(i)
		i = p
	}
	h[i] = s
	s.e.index = int32(i)
}

// siftDown restores the heap property downward from i (children 4i+1..4i+4).
func (h evHeap) siftDown(i int) {
	s := h[i]
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, ms := c, h[c]
		hi := c + 4
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if ks := h[k]; less(ks, ms) {
				m, ms = k, ks
			}
		}
		if less(s, ms) {
			break
		}
		h[i] = ms
		ms.e.index = int32(i)
		i = m
	}
	h[i] = s
	s.e.index = int32(i)
}

// fix re-positions the event at i after its key changed.
func (h evHeap) fix(i int) {
	e := h[i].e
	h[i].when = e.When
	h.siftUp(i)
	if int(e.index) == i {
		h.siftDown(i)
	}
}

// remove takes the event at heap index i out of the heap.
func (h *evHeap) remove(i int) {
	s := *h
	n := len(s) - 1
	last := s[n]
	s[n] = slot{}
	*h = s[:n]
	if i != n {
		s[i] = last
		last.e.index = int32(i)
		s[:n].fix(i)
	}
}

// pop takes the minimum event out of the heap and returns it.
func (h *evHeap) pop() *Event {
	s := *h
	top := s[0].e
	n := len(s) - 1
	last := s[n]
	s[n] = slot{}
	*h = s[:n]
	if n > 0 {
		s[0] = last
		s[:n].siftDown(0)
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
func (l *Loop) HasPendingEvents() bool { return l.Pending() > 0 }

// PeekNextEventTime returns the fire time of the earliest pending event,
// or Never when the queue is empty. It is not a pure read: finding the
// earliest event may move the next occupied bucket of the wheel into bot. So,
// like every other method, it belongs to whoever may run the loop — the
// loop's own goroutine, or a Coordinator at a barrier, when every shard is
// parked behind the window handshake.
func (l *Loop) PeekNextEventTime() Time {
	h := l.min()
	if h == nil {
		return Never
	}
	return (*h)[0].when
}

// ProcessNextEvent pops and executes the earliest pending event, advancing
// the loop clock to its fire time. It must not be called on an empty queue.
// Until the next event fires, Passed answers for the point just after it.
func (l *Loop) ProcessNextEvent() { l.fire(l.min()) }

// fire pops and executes the top of h, which min returned.
func (l *Loop) fire(h *evHeap) {
	next := h.pop()
	l.now = next.When
	l.fired++
	// A callback may run this loop further (a nested RunUntil); the outer
	// event is the one firing again once that returns.
	outer := l.cur
	l.cur = next
	l.here = place{next.band + 1, next.k1, next.k2}
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
//
// A Run nested in a callback leaves that event no longer the last to have
// fired: from its return until the callback's, Passed and ArrivalPassed
// answer for the instant the nested Run left, as between events.
func (l *Loop) Run() error {
	l.stopped = false
	defer func() { l.cur = nil }()
	for h := l.min(); h != nil; h = l.min() {
		if l.stopped {
			return ErrStopped
		}
		if (*h)[0].when > l.horizon {
			l.now = l.horizon
			l.here = place{band: drained}
			return nil
		}
		l.fire(h)
	}
	l.here = place{band: drained}
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
		l.here = place{}
	}
	return err
}

// String summarizes loop state for diagnostics.
func (l *Loop) String() string {
	return fmt.Sprintf("loop{now=%s fired=%d pending=%d}", l.now, l.fired, l.Pending())
}
