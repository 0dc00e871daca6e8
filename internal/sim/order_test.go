package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refEvent is the order oracle's copy of one scheduled event: the full
// (When, band, k1, k2, seq) key, and what its callback does when it fires.
type refEvent struct {
	when   Time
	band   uint8
	k1, k2 uint64
	seq    uint64
	id     int
	e      *Event // valid only while h.Pending()
	h      Handle
	act    uint8 // onFire: 1 schedules two more events, 2 runs the loop further from inside the callback
	arg    Time
}

// orderModel drives one Loop from a byte stream and holds it to a reference
// that knows nothing about heaps, wheels or tiers: the pending events in a
// plain slice, sorted by the full key whenever it changed. Every fire must
// be the reference's first element, at its time, inside the bound of the
// innermost Run that fired it.
type orderModel struct {
	t       testing.TB
	l       *Loop
	ops     []byte
	pos     int
	pending []*refEvent
	dirty   bool
	all     []*refEvent // every event ever scheduled, for picking cancel/reschedule victims (stale ones included)
	seq     uint64
	bound   Time
	fires   int
	budget  int // bursts stop once this many events were scheduled: keeps a fuzz input's cost bounded

	// White-box coverage, read by the property test only.
	moves    [3][3]int // Reschedule from tier → to tier
	allTiers bool      // far, bot and the wheel all held events at once
	built    bool      // the wheel exists
	dipped   bool      // the population fell under wheelMin after the wheel was built …
	regrown  bool      // … and rose over it again
	parked   int       // RunBefore parked behind a bucket min() had already taken, and an earlier arrival was injected
	nested   int
	maxBurst int

	// The reference's place in the total order, for ArrivalPassed: an
	// arrival has passed iff its key sorts below front. A front of band 2
	// stands after every event at its instant. After a ProcessNextEvent step
	// the front stays the stepped event's: the loop stands just after it.
	front refKey
	// ArrivalPassed answers checked, and those at the instant of the event
	// firing, of an arrival firing, at a barrier, at a drained instant and
	// after a stepped event.
	queries, atCallback, atArrival, atBarrier, atDrained, atStepped int
}

// refKey is one place in the (When, band, k1, k2) order.
type refKey struct {
	when   Time
	band   uint8
	k1, k2 uint64
}

// passed is the reference's answer for an event keyed (t, band, k1, k2)
// that was never scheduled — an arrival (band 1), or a keyed local event
// (band 0), which sorts after a real one of equal key: it sorts below front.
func (m *orderModel) passed(t Time, band uint8, k1, k2 uint64) bool {
	f := m.front
	switch {
	case t != f.when:
		return t < f.when
	case band != f.band:
		return band < f.band
	case k1 != f.k1:
		return k1 < f.k1
	}
	return k2 < f.k2
}

// query holds one ArrivalPassed and one Passed answer to the reference.
func (m *orderModel) query(t Time, k1, k2 uint64) {
	if got, want := m.l.ArrivalPassed(t, k1, k2), m.passed(t, 1, k1, k2); got != want {
		m.t.Fatalf("ArrivalPassed(%v, %d, %d) = %v at %v, front %+v: want %v", t, k1, k2, got, m.l.Now(), m.front, want)
	}
	if got, want := m.l.Passed(t, k1, k2), m.passed(t, 0, k1, k2); got != want {
		m.t.Fatalf("Passed(%v, %d, %d) = %v at %v, front %+v: want %v", t, k1, k2, got, m.l.Now(), m.front, want)
	}
	m.queries++
	if t != m.l.Now() {
		return
	}
	switch {
	case m.l.cur != nil && m.front.band == 1:
		m.atArrival++
	case m.l.cur != nil:
		m.atCallback++
	case m.front.band == 2 && m.front.when == t:
		m.atDrained++
	case m.front.band != 2:
		m.atStepped++
	default:
		m.atBarrier++
	}
}

// probe asks about arrivals around here without reading the op stream: one
// nanosecond either side of now, and at now keys that tie, precede and
// follow the front's.
func (m *orderModel) probe() {
	now := m.l.Now()
	m.query(now-1, 0, 0)
	m.query(now+1, 0, 0)
	k1, k2 := m.front.k1, m.front.k2
	for _, d1 := range [...]uint64{^uint64(0), 0, 1} {
		for _, d2 := range [...]uint64{^uint64(0), 0, 1} {
			m.query(now, k1+d1, k2+d2)
		}
	}
}

func (m *orderModel) byte() byte {
	if m.pos >= len(m.ops) {
		m.pos++
		return 0
	}
	b := m.ops[m.pos]
	m.pos++
	return b
}

// n returns a number in [0, max) from the next three bytes.
func (m *orderModel) n(max int) int {
	v := int(m.byte()) | int(m.byte())<<8 | int(m.byte())<<16
	return v % max
}

// horizon picks a distance ahead from the scales that matter: the same
// instant, the same bucket, a few buckets, within one turn of the wheel,
// around the turn's far edge, and well beyond it (to 100 ms).
func (m *orderModel) horizon() Time {
	const turn = wheelSize << wheelShift
	switch m.byte() % 7 {
	case 0:
		return 0
	case 1:
		return Time(m.n(1 << wheelShift))
	case 2:
		return Time(m.n(64 << wheelShift))
	case 3:
		return Time(m.n(turn))
	case 4:
		return turn - 2<<wheelShift + Time(m.n(4<<wheelShift))
	case 5:
		return Time(m.n(8 * turn))
	}
	return Time(m.n(int(100 * Millisecond)))
}

func less5(a, b *refEvent) bool {
	switch {
	case a.when != b.when:
		return a.when < b.when
	case a.band != b.band:
		return a.band < b.band
	case a.k1 != b.k1:
		return a.k1 < b.k1
	case a.k2 != b.k2:
		return a.k2 < b.k2
	}
	return a.seq < b.seq
}

func (m *orderModel) first() *refEvent {
	if m.dirty {
		sort.Slice(m.pending, func(i, j int) bool { return less5(m.pending[i], m.pending[j]) })
		m.dirty = false
	}
	if len(m.pending) == 0 {
		return nil
	}
	return m.pending[0]
}

func orderFire(a, _ any, u uint64) { a.(*orderModel).onFire(int(u)) }

// schedule arms one event of the given kind at when and records its key.
func (m *orderModel) schedule(kind byte, when Time, k1, k2 uint64, act uint8, arg Time) {
	l := m.l
	r := &refEvent{when: when, seq: m.seq, id: len(m.all), act: act, arg: arg}
	m.seq++
	if r.when < l.Now() {
		r.when = l.Now()
	}
	switch kind % 3 {
	case 0:
		id := r.id
		r.k1 = uint64(l.Now())
		r.e = l.At(when, "order:at", func() { m.onFire(id) })
	case 1:
		r.k1, r.k2 = k1, k2
		r.e = l.AtKeyedTimer(when, "order:keyed", orderFire, m, nil, uint64(r.id), k1, k2)
	case 2:
		r.band, r.k1, r.k2 = 1, k1, k2
		r.e = l.AtArrivalTimer(when, "order:arrival", orderFire, m, nil, uint64(r.id), k1, k2)
	}
	if r.e.When != r.when {
		m.t.Fatalf("event %d armed at %v, want %v", r.id, r.e.When, r.when)
	}
	r.h = r.e.Handle()
	m.pending = append(m.pending, r)
	m.all = append(m.all, r)
	m.dirty = true
}

// scheduleFromOps draws the kind, the time and the key of one event. A keyed
// event's k1 lies up to 4 µs in the past or in the future; an arrival's key
// comes from a small range, so equal (When, k1) pairs are common and k2 and
// seq get to decide.
func (m *orderModel) scheduleFromOps(when Time) {
	kind := m.byte()
	var k1, k2 uint64
	switch kind % 3 {
	case 1:
		k1, k2 = uint64(m.l.Now()+Time(m.n(8192))-4096), 1+uint64(m.byte()%4)
		if int64(k1) < 0 {
			k1 = 0
		}
	case 2:
		k1, k2 = uint64(m.byte()%8), uint64(m.byte()%8)
	}
	var act uint8
	var arg Time
	if a := m.byte(); a < 16 {
		act, arg = 1, Time(a)<<wheelShift
	} else if a < 20 {
		act, arg = 2, Time(a-16)<<(wheelShift+10)
	}
	m.schedule(kind, when, k1, k2, act, arg)
}

func (m *orderModel) onFire(id int) {
	l := m.l
	want := m.first()
	switch {
	case want == nil:
		m.t.Fatalf("event %d fired with nothing pending in the reference", id)
	case want.id != id:
		got := m.all[id]
		m.t.Fatalf("fire %d: event %d (when %d band %d k1 %d k2 %d seq %d) fired before event %d (when %d band %d k1 %d k2 %d seq %d)",
			m.fires, id, got.when, got.band, got.k1, got.k2, got.seq, want.id, want.when, want.band, want.k1, want.k2, want.seq)
	case l.Now() != want.when:
		m.t.Fatalf("event %d fired at %v, want %v", id, l.Now(), want.when)
	case want.when > m.bound:
		m.t.Fatalf("event %d at %v fired past the run's bound %v", id, want.when, m.bound)
	case want.h.Pending():
		m.t.Fatalf("event %d is still pending inside its own callback", id)
	}
	m.pending = m.pending[1:]
	m.fires++
	m.front = refKey{want.when, want.band, want.k1, want.k2}
	m.probe()
	switch want.act {
	case 1:
		// What a callback usually does: arm its successors, one of them at
		// this very instant.
		m.schedule(byte(id), l.Now(), uint64(l.Now()), 1, 0, 0)
		m.schedule(byte(id+1), l.Now()+want.arg, uint64(id%8), uint64(id%4), 0, 0)
	case 2:
		// Not past the outer run's bound: a nested run that overshoots it
		// has the outer Run step the clock back, which is the callers'
		// business (Coordinator.RunUntil) and not the queue's.
		m.nested++
		m.runUntil(min(l.Now()+want.arg, m.bound))
		m.probe()
	}
}

// runUntil runs the loop to t under the bound t, from the top level or from
// inside a callback, and restores the caller's bound.
func (m *orderModel) runUntil(t Time) {
	outer := m.bound
	m.bound = t
	if err := m.l.RunUntil(t); err != nil {
		m.t.Fatalf("RunUntil(%v): %v", t, err)
	}
	m.bound = outer
	m.front = refKey{when: t, band: 2}
	if r := m.first(); r != nil && r.when <= t {
		m.t.Fatalf("RunUntil(%v) left event %d at %v unfired", t, r.id, r.when)
	}
}

// check compares everything the loop says about its queue with the reference.
func (m *orderModel) check() {
	l := m.l
	n := len(m.pending)
	if l.Pending() != n || l.HasPendingEvents() != (n > 0) || !strings.Contains(l.String(), fmt.Sprintf("pending=%d}", n)) {
		m.t.Fatalf("Pending() = %d, HasPendingEvents() = %v, String() = %s; the reference holds %d", l.Pending(), l.HasPendingEvents(), l, n)
	}
	next := Never
	if r := m.first(); r != nil {
		next = r.when
	}
	if got := l.PeekNextEventTime(); got != next {
		m.t.Fatalf("PeekNextEventTime() = %v, want %v", got, next)
	}
	if w := l.wheel; w != nil {
		m.built = true
		if len(l.far) > 0 && len(l.bot) > 0 && w.n > 0 {
			m.allTiers = true
		}
		if n < wheelMin/2 {
			m.dipped = true
		} else if m.dipped && n > 2*wheelMin {
			m.regrown = true
		}
	}
}

// victim picks any event ever scheduled, live or long gone.
func (m *orderModel) victim() *refEvent {
	if len(m.all) == 0 {
		return nil
	}
	// Mostly a recent one: those are the ones still pending.
	if m.byte()%4 != 0 {
		if k := len(m.all); k > 64 {
			return m.all[k-1-m.n(64)]
		}
	}
	return m.all[m.n(len(m.all))]
}

// forget removes r from the reference's pending set.
func (m *orderModel) forget(r *refEvent) {
	for i, p := range m.pending {
		if p == r {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
	m.t.Fatalf("event %d is pending in the loop and not in the reference", r.id)
}

func (m *orderModel) step() {
	l := m.l
	switch op := m.byte() % 17; op {
	case 0, 1, 2, 3, 4:
		m.scheduleFromOps(l.Now() + m.horizon())
	case 5: // a same-instant burst, a thousand events and more
		when := l.Now() + m.horizon()
		size := 1000 + m.n(1024)
		if len(m.all) >= m.budget {
			size = 1
		}
		if size > m.maxBurst {
			m.maxBurst = size
		}
		for i := 0; i < size; i++ {
			m.schedule(byte(i), when, uint64(i%5), uint64(i%3), 0, 0)
		}
	case 6, 7: // cancel, by pointer or through a handle that may be stale
		r := m.victim()
		if r == nil {
			return
		}
		live := r.h.Pending()
		if live {
			m.forget(r)
		}
		if op == 6 && live {
			l.Cancel(r.e)
			if !r.e.Canceled() {
				m.t.Fatalf("event %d not canceled by Cancel", r.id)
			}
		} else {
			l.CancelHandle(r.h)
		}
		if r.h.Pending() {
			m.t.Fatalf("event %d still pending after cancel", r.id)
		}
	case 8, 9, 10: // reschedule, across every tier boundary the horizons reach
		r := m.victim()
		when := l.Now() + m.horizon()
		if r == nil {
			return
		}
		if !r.h.Pending() {
			if l.RescheduleHandle(r.h, when) {
				m.t.Fatalf("RescheduleHandle moved event %d through a stale handle", r.id)
			}
			return
		}
		from := r.e.tier
		if l.Reschedule(r.e, when) != r.e {
			m.t.Fatalf("Reschedule(pending event %d) did not return it", r.id)
		}
		m.moves[from][r.e.tier]++
		r.when, r.seq = when, m.seq
		m.seq++
		if r.band == 0 {
			r.k1, r.k2 = uint64(l.Now()), 0
		}
		m.dirty = true
	case 11, 12:
		m.runUntil(l.Now() + m.horizon())
	case 13: // a coordinator window: park short of the next event, then inject an arrival ahead of it
		r := m.first()
		if r == nil || r.when < l.Now()+4 {
			return
		}
		park := l.Now() + (r.when-l.Now())/2
		m.bound = park - 1
		if err := l.RunBefore(park); err != nil {
			m.t.Fatalf("RunBefore(%v): %v", park, err)
		}
		if l.Now() != park || !l.Leading() {
			m.t.Fatalf("RunBefore(%v) parked at %v, leading %v", park, l.Now(), l.Leading())
		}
		if w := l.wheel; w != nil && w.cur > bucketOf(park) {
			m.parked++
		}
		m.front = refKey{when: park - 1, band: 2}
		m.probe()
		m.schedule(2, park+Time(m.n(int(r.when-park))), uint64(m.byte()%8), uint64(m.byte()%8), 0, 0)
	case 14: // step the population down through the wheel threshold, by the stepping interface
		m.bound = Never
		for l.Pending() > wheelMin/4 {
			l.ProcessNextEvent()
			m.probe()
		}
	case 15:
		m.scheduleFromOps(l.Now())
	case 16: // has an arrival keyed like the ones scheduled here passed?
		m.query(l.Now()+Time(m.byte()%3)-1, uint64(m.byte()%9), uint64(m.byte()%9))
	}
	m.check()
}

// runLoopOrder plays ops against a fresh loop, then drains it.
func runLoopOrder(t testing.TB, ops []byte, budget int) *orderModel {
	m := &orderModel{t: t, l: NewLoop(), ops: ops, budget: budget, front: refKey{when: -1, band: 2}}
	for m.pos < len(m.ops) {
		m.step()
	}
	m.bound = Never
	if err := m.l.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(m.pending) != 0 || m.l.Pending() != 0 {
		t.Fatalf("drained loop holds %d events, the reference %d", m.l.Pending(), len(m.pending))
	}
	if got, want := m.l.Fired(), uint64(m.fires); got != want {
		t.Fatalf("Fired() = %d, the reference fired %d", got, want)
	}
	return m
}

func randomOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestLoopOrderOracle: whatever tier an event waits in and however it got
// there, the loop fires the pending set in the order a plain sort over
// (When, band, k1, k2, seq) gives. The white-box tallies at the end say the
// op streams really did reach what the wheel added: every tier-to-tier
// Reschedule, all three tiers occupied at once, the wheel threshold crossed
// both ways, a window parked behind a bucket already taken, nested runs.
// Along the way ArrivalPassed and Passed answer, for arrivals and keyed
// local events that were never scheduled, whether the sort puts them before
// the event firing, the event a step just fired, the barrier a window
// parked at or the instant a run drained.
func TestLoopOrderOracle(t *testing.T) {
	var sum orderModel
	for seed := int64(1); seed <= 4; seed++ {
		m := runLoopOrder(t, randomOps(seed, 12000), 1<<20)
		for i := range sum.moves {
			for j := range sum.moves[i] {
				sum.moves[i][j] += m.moves[i][j]
			}
		}
		sum.allTiers = sum.allTiers || m.allTiers
		sum.built = sum.built || m.built
		sum.regrown = sum.regrown || m.regrown
		sum.parked += m.parked
		sum.nested += m.nested
		sum.fires += m.fires
		sum.queries += m.queries
		sum.atCallback += m.atCallback
		sum.atArrival += m.atArrival
		sum.atBarrier += m.atBarrier
		sum.atDrained += m.atDrained
		sum.atStepped += m.atStepped
		if m.maxBurst > sum.maxBurst {
			sum.maxBurst = m.maxBurst
		}
	}
	t.Logf("fires %d, moves (far, bot, wheel) %v, parked behind a taken bucket %d, nested runs %d, largest burst %d", sum.fires, sum.moves, sum.parked, sum.nested, sum.maxBurst)
	for i := range sum.moves {
		for j, n := range sum.moves[i] {
			if n == 0 {
				t.Errorf("no Reschedule moved an event from tier %d to tier %d", i, j)
			}
		}
	}
	if !sum.built || !sum.allTiers || !sum.regrown {
		t.Errorf("wheel built %v, all tiers occupied at once %v, threshold crossed down and up again %v; want all three", sum.built, sum.allTiers, sum.regrown)
	}
	if sum.parked == 0 || sum.nested == 0 || sum.maxBurst < 1000 {
		t.Errorf("parked %d, nested %d, largest burst %d: an operation the property is about never ran", sum.parked, sum.nested, sum.maxBurst)
	}
	t.Logf("ArrivalPassed: %d answers, at now %d in a local event, %d in an arrival, %d at a barrier, %d drained, %d after a stepped event", sum.queries, sum.atCallback, sum.atArrival, sum.atBarrier, sum.atDrained, sum.atStepped)
	if sum.atCallback == 0 || sum.atArrival == 0 || sum.atBarrier == 0 || sum.atDrained == 0 || sum.atStepped == 0 {
		t.Errorf("ArrivalPassed was never asked at the instant of one of: a local event, an arrival, a barrier, a drained run, a stepped event")
	}
}

// FuzzLoopOrder is the same driver with the op stream chosen by the fuzzer.
func FuzzLoopOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 2048))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<16 {
			t.Skip()
		}
		runLoopOrder(t, ops, 10000)
	})
}
