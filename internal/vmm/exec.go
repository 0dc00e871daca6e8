package vmm

import (
	"fmt"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
)

// exec is the shared guest execution engine. It advances a guest VM in
// chunks, producing guest-caused VM exits at deterministic points of the
// instruction stream:
//
//   - at every absolute multiple of ExitEvery branches, and
//   - at every I/O instruction (guest.Step stops there).
//
// Exit points MUST be a pure function of the guest's instruction stream —
// never of host real time — because interrupts are injected only at exits,
// and replicas must inject at identical instruction counts. Contention
// rescaling and pacing pauses therefore only stretch the real-time mapping
// of the same instruction trajectory; they never move an exit point.
//
// # Tickless execution
//
// Because exits are a function of the instruction stream, whether an exit
// will do anything is known in advance. The hosting runtime's exit walks a
// fixed list of clause rows (Runtime's clauseTimer to clausePace), and its
// horizon is the first boundary at which one of them is due; exec adds the
// op queue draining or reaching I/O. exec arms ONE event there, and sync
// materialises the boundaries crossed before it on demand: one vm.Step over
// all of them, instr and chunkStart set to the last one crossed, then exit
// at that boundary, where only the PIT tick count is left to do and a row
// found due panics. That is exact, not an approximation, because
// consecutive full chunks at an unchanged rate have the same integer
// duration, so the k-th boundary falls at chunkStart + chunkDur +
// (k-1)·fullDur to the nanosecond, and every change of this guest's rate
// (rescale) materialises first. A host whose exits depend on real time
// (BaselineRuntime) keeps every boundary by returning the next one as its
// horizon.
//
// Sync points. Anything that reads or writes execution state syncs first:
// rescale, pause and stop here; in Runtime: Instr, Now, VM, VirtAtLastExit,
// EnqueueNetDelivery, OnPeerVirt, SetView and EnableCheckpoints. Whatever
// can pull the horizon in afterwards (a new head-of-queue delivery, a lower
// peer maximum, a first checkpoint) calls rearm, which moves the event and
// leaves the chunk in flight untouched. A peer report held without an
// arrival event (HeldReports) is no sync point: it only raises the peer
// maximum, which moves no exit, and every read that acts on that maximum
// pulls it in first (FoldPeerVirt).
//
// Same-nanosecond ties. Ticking, each chunk's event was scheduled when its
// predecessor fired, and local events of one instant fire in scheduling
// order. A boundary whose time equals now therefore counts as crossed iff
// that would-be event sorts before the event now firing (sim.Loop.Passed):
// always for a fabric arrival, which fires after every local event of its
// instant; for a local event iff it was scheduled after the boundary's
// chunk began (a pace timer armed milliseconds ago: not crossed; a device
// timer armed since the previous boundary: crossed); never at a
// coordinator barrier, which precedes its instant. The armed event carries
// the same key (sim.Loop.AtKeyedTimer), so the heap and sync agree. Chunks
// of co-resident guests that started together share every boundary
// instant; among those the key ends in the exec's rank (Host.nextRank),
// which reproduces the order their events would have been scheduled in.
//
// A rank is taken whenever a chunk is armed anywhere but in its
// predecessor's place on the boundary grid: at start, resume and re-time;
// when the exit that ended the predecessor re-timed a co-resident (whose
// event was then scheduled first); and when the predecessor ended off the
// grid, at an I/O instruction. A successor keeps its place only if its
// predecessor ended on a boundary: there every chain sharing the instant
// fires, armed or not, in rank order, and schedules its successor in that
// order again. A chunk that begins off the grid is keyed by a start later
// than its co-residents' chunks', so it fires after them at the boundary
// they next share, and its successors after theirs from then on — which is
// what the rank taken at the I/O exit, above every earlier one, says.
// Nothing else sends a guest that went busy to the back: going busy
// re-times nobody.
//
// # Who is re-timed
//
// A rate change materialises the chunk in flight (rescale): partial progress
// is executed and the rest re-armed at the new rate, which re-quantises the
// chunk's end to the nanosecond. Host.setBusy asks that only of guests whose
// rate changed — the busy ones, when the number sharing the CPU moved. An
// idle guest's rate does not depend on its neighbours: it keeps the one
// event it armed across any number of their bursts.
type exec struct {
	host *Host
	vm   *guest.VM
	loop *sim.Loop

	exitEvery int64
	instr     int64

	busy    bool
	paused  bool
	stopped bool

	// The trajectory in flight, valid while ev != nil: the chunk that began
	// at chunkStart runs chunkBudget branches in chunkDur; skip boundaries
	// follow it (its own end is the first of them when skip > 0), one full
	// chunk of fullDur apart, before the exit ev is armed at. instr and the
	// guest's op queue are as of chunkStart.
	ev          *sim.Event
	chunkStart  sim.Time
	chunkRate   float64 // branches per fabric second
	chunkBudget int64
	chunkDur    sim.Time
	fullDur     sim.Time
	skip        int64
	rank        uint64

	// vmm is the hosting runtime (an interface, not two func fields: a
	// pointer in an interface allocates nothing, a bound method does, and
	// guest admission is a hot path under churn).
	vmm exitHandler

	// everyBoundary forces horizon = next boundary: the ticking reference
	// the equivalence test compares against. late, when above zero, has
	// horizon read exit clause late-1's next one boundary late: a mutant
	// the crossed-boundary check must catch. Tests only.
	everyBoundary bool
	late          int
}

// exitHandler is what a VMM flavour supplies to the engine that runs its
// guest.
type exitHandler interface {
	// exit processes a guest-caused VM exit (interrupt injection etc.). It
	// runs after instr has been advanced: at an exit taken, and at the last
	// boundary a sync crosses, where the exit event is still armed (ev).
	exit(res guest.StepResult)
	// horizon returns the first boundary at or after first (the end of the
	// chunk in flight, a multiple of ExitEvery) at which exit must act. The
	// op queue is exec's own concern.
	horizon(first int64) int64
}

// maxSkip bounds the boundaries one event may stand for, so a guest with
// nothing ahead of it still keeps an event on the loop (about a second of
// guest time at the shipped ExitEvery).
const maxSkip = 4096

// start boots the guest and begins execution.
func (e *exec) start() {
	e.vm.Boot()
	e.syncBusy()
	e.arm(true)
}

// stop halts execution permanently (end of scenario, or a replica being
// evicted/replaced). The host's busy-population accounting is released so
// surviving residents stop paying contention for a corpse.
func (e *exec) stop() {
	e.sync()
	e.stopped = true
	if e.ev != nil {
		e.loop.Cancel(e.ev)
		e.ev = nil
	}
	if e.busy {
		e.busy = false
		e.host.setBusy(-1)
	}
}

// chunkDur returns the fabric time budget branches take at rate.
func chunkDur(budget int64, rate float64) sim.Time {
	dur := sim.Time(float64(budget) / rate * 1e9)
	if dur < 1 {
		dur = 1
	}
	return dur
}

// arm begins the next execution chunk toward the next deterministic exit
// point. fresh says the chunk is not the successor of one whose exit just
// fired in place, so it takes a new place in the host's scheduling order.
func (e *exec) arm(fresh bool) {
	if e.stopped || e.paused || e.ev != nil {
		return
	}
	budget := e.budget()
	rate := e.host.idleRate()
	if e.busy {
		rate = e.host.busyRate()
	}
	if fresh {
		e.rank = e.host.nextRank()
	}
	e.chunkStart = e.loop.Now()
	e.chunkRate = rate
	e.chunkBudget = budget
	e.chunkDur = chunkDur(budget, rate)
	e.fullDur = chunkDur(e.exitEvery, rate)
	e.schedule(e.skippable())
}

// budget returns the branches from instr to the next exit point: the next
// boundary, or the I/O instruction before it.
func (e *exec) budget() int64 {
	budget := (e.instr/e.exitEvery+1)*e.exitEvery - e.instr
	if toIO, has := e.vm.BranchesToNextIO(); has && toIO+1 < budget {
		budget = toIO + 1
	}
	return budget
}

// skippable returns how many boundaries, starting with the end of the
// chunk in flight, no exit handler needs to see.
func (e *exec) skippable() int64 {
	first := e.instr + e.chunkBudget
	if e.everyBoundary || first%e.exitEvery != 0 || e.vm.Busy() != e.busy {
		// The chunk ends at an I/O instruction, or a partial step drained
		// the queue and the next exit owes the host a busy→idle report.
		return 0
	}
	h := e.vmm.horizon(first)
	if e.busy {
		// Up to the exit at which the queue drains, or the last boundary
		// at or before its next I/O instruction (the chunk after it is cut
		// short, which arm sizes from there).
		toIO, has := e.vm.BranchesToNextIO()
		q := e.instr + toIO
		if has {
			q = (q + 1) / e.exitEvery * e.exitEvery
		} else {
			q = (q + e.exitEvery - 1) / e.exitEvery * e.exitEvery
		}
		if q < h {
			h = q
		}
	}
	return min((h-first)/e.exitEvery, maxSkip)
}

// schedule arms the exit event for the trajectory in flight, skip
// boundaries past the end of its first chunk.
func (e *exec) schedule(skip int64) {
	e.skip = skip
	at, from := e.chunkStart+e.chunkDur, e.chunkStart
	if e.skip > 0 {
		at += sim.Time(e.skip) * e.fullDur
		from = at - e.fullDur
	}
	if e.everyBoundary {
		// The reference orders its events the way they always were: by
		// scheduling sequence alone.
		e.ev = e.loop.AtTimer(at, "vmm:chunk", chunkTimer, e, nil, 0)
		return
	}
	e.ev = e.loop.AtKeyedTimer(at, "vmm:chunk", chunkTimer, e, nil, 0, uint64(from), e.rank)
}

// rearm re-derives the horizon for the chunk in flight, after something
// that may have pulled it in, and moves the exit event if it did.
func (e *exec) rearm() {
	if e.ev == nil {
		return
	}
	if skip := e.skippable(); skip != e.skip {
		e.loop.Cancel(e.ev)
		e.schedule(skip)
	}
}

// sync materialises every boundary the trajectory in flight has crossed by
// now. The armed exit itself is never crossed here: it fires.
func (e *exec) sync() {
	if e.ev == nil || e.skip == 0 {
		return
	}
	now, end := e.loop.Now(), e.chunkStart+e.chunkDur
	if now < end || !e.loop.Passed(end, uint64(e.chunkStart), e.rank) {
		return
	}
	k := 1 + int64((now-end)/e.fullDur)
	if last := end + sim.Time(k-1)*e.fullDur; k > 1 && last == now &&
		!e.loop.Passed(last, uint64(last-e.fullDur), e.rank) {
		k--
	}
	if k > e.skip {
		panic(fmt.Sprintf("vmm: guest %s crossed %d boundaries with %d armed", e.vm.ID(), k, e.skip))
	}
	e.cross(k)
}

// cross materialises the next k skippable boundaries, running exit at the
// last of them.
func (e *exec) cross(k int64) {
	n := e.chunkBudget + (k-1)*e.exitEvery
	e.chunkStart += e.chunkDur + sim.Time(k-1)*e.fullDur
	e.chunkBudget, e.chunkDur = e.exitEvery, e.fullDur
	e.skip -= k
	e.instr += n
	res := e.vm.Step(n)
	if res.IO != nil {
		panic(fmt.Sprintf("vmm: guest %s skipped an I/O exit at instr %d", e.vm.ID(), e.instr))
	}
	e.vmm.exit(res)
}

// chunkTimer is the typed chunk-completion callback — the single hottest
// event in the simulator, so it must not allocate a closure or method value
// per arm.
func chunkTimer(a, _ any, _ uint64) { a.(*exec).fire() }

// fire completes the armed chunk: a guest-caused VM exit. The successor
// keeps the chunk's rank iff the chunk ended on a boundary (see the header).
func (e *exec) fire() {
	if e.skip > 0 {
		e.cross(e.skip)
	}
	e.ev = nil
	res := e.vm.Step(e.chunkBudget)
	e.exit(res, (e.instr+res.Executed)%e.exitEvery != 0)
}

// exit takes the VM exit that ends the chunk in flight and arms the next
// chunk. A successor armed where its predecessor fired (fresh is false)
// keeps that chunk's place in the host's scheduling order — unless the exit
// re-armed a co-resident (a rescale), whose event was then scheduled first.
func (e *exec) exit(res guest.StepResult, fresh bool) {
	e.instr += res.Executed
	ranked := e.host.rankHi
	e.vmm.exit(res)
	e.syncBusy()
	e.arm(fresh || e.host.rankHi != ranked)
}

// materialize stops the chunk in flight at now: partial progress is
// executed, and if that lands exactly on the planned exit point the exit
// is taken.
func (e *exec) materialize() {
	e.sync()
	elapsed := e.loop.Now() - e.chunkStart
	done := int64(float64(elapsed) * e.chunkRate / 1e9)
	if done > e.chunkBudget {
		done = e.chunkBudget
	}
	e.loop.Cancel(e.ev)
	e.ev = nil
	if done > 0 {
		res := e.vm.Step(done)
		if res.IO != nil || done == e.chunkBudget {
			e.exit(res, true)
			return
		}
		e.instr += res.Executed
	}
	e.arm(true)
}

// rescale re-times the chunk in flight after the host's contention changed
// this guest's rate (Host.setBusy).
func (e *exec) rescale() {
	if e.ev != nil {
		e.materialize()
	}
}

// pause suspends execution in real time (the "slow the fastest replica"
// mechanism). Partial progress is materialized first.
func (e *exec) pause() {
	if e.paused || e.stopped {
		return
	}
	e.paused = true
	if e.ev != nil {
		e.materialize()
	}
}

// resume continues execution after a pause.
func (e *exec) resume() {
	if !e.paused {
		return
	}
	e.paused = false
	e.arm(true)
}

// syncBusy keeps the host's busy-population accounting in step with the
// guest's op queue.
func (e *exec) syncBusy() {
	nb := e.vm.Busy()
	if nb == e.busy {
		return
	}
	e.busy = nb
	if nb {
		e.host.setBusy(1)
	} else {
		e.host.setBusy(-1)
	}
}
