package sim

import "fmt"

// Coordinator synchronizes one control Loop and K shard Loops under
// conservative lookahead. Simulated time advances in half-open windows
// [cur, w) whose width never exceeds the fabric's minimum link latency L:
// within a window every shard may run independently (in parallel, when
// enabled), because no event it executes can affect another shard before
// the window ends — any cross-shard packet sent at time s arrives at
// s+latency >= s+L >= w. At each window boundary the coordinator runs a
// barrier: cross-shard traffic parked in per-shard outboxes is exchanged
// (injected into destination loops with its partition-invariant arrival
// key) and the control loop catches up to the barrier time: its events may
// read and write any shard's state (the stall detector's sweep reads every
// replica's pending proposals).
//
// Two properties follow:
//
//   - Determinism across K. The window grid depends only on L, the horizon
//     and control-event times — not on K — and same-time event order inside
//     every loop is fixed by the (When, band, k1, k2, seq) key, which
//     travels with the traffic rather than with the scheduling order. The
//     same seed therefore produces byte-identical op logs and output
//     digests for K=1 and K>1, sequential or parallel.
//
//   - Control-before-data at equal timestamps. Windows are cut at the next
//     pending control event, and shards execute strictly-before the cut,
//     so a control action at time t always runs before any data event at t.
//
// Every method of a shard Loop the coordinator calls at a barrier — the
// exchange's injections, and PeekNextEventTime, which is not a pure read (it
// may sort the loop's next bucket) — runs on the coordinator goroutine while
// that shard is parked: between the done receive that ended its last window
// and the cmd send that starts its next one. A loop never has two users.
type Coordinator struct {
	ctrl   *Loop
	shards []*Loop

	// lookahead returns the current conservative window bound L: the
	// minimum latency of any fabric link. It is re-read every window so
	// that barrier-time topology changes (SetAccess) take effect, and it is
	// deliberately the global minimum — not the per-partition cross-shard
	// minimum — so the window grid is identical for every K.
	lookahead func() Time

	// exchange drains cross-shard outboxes into destination loops. It runs
	// on the coordinator goroutine while all shard loops are parked at the
	// barrier time.
	exchange func()
	// open, if set, runs for shard k as each of its windows starts, on the
	// goroutine that runs the window (OnWindow).
	open func(k int)

	parallel bool
	depth    int // RunUntil re-entrancy depth; workers span the outermost call

	// Tests only: barriers counts barriers run, and everyWindow turns the
	// idle-window skip off, giving the reference schedule it must equal.
	barriers    uint64
	everyWindow bool

	workers []chan shardCmd
	done    []chan error
}

// shardCmd is one window grant to a shard worker.
type shardCmd struct {
	t         Time
	inclusive bool // RunUntil(t) instead of RunBefore(t)
}

// NewCoordinator builds a coordinator over a control loop and one or more
// shard loops. lookahead must return a positive bound; exchange may be nil.
func NewCoordinator(ctrl *Loop, shards []*Loop, lookahead func() Time, exchange func()) *Coordinator {
	if ctrl == nil || len(shards) == 0 || lookahead == nil {
		panic("sim: coordinator needs a control loop, >=1 shard, and a lookahead bound")
	}
	return &Coordinator{
		ctrl:      ctrl,
		shards:    shards,
		lookahead: lookahead,
		exchange:  exchange,
	}
}

// OnWindow has open(k) run as each window of shard k starts, on the
// goroutine that runs it — work the barrier hands a shard without doing it
// serially — and for every shard before an idle-window skip is counted, so
// whatever open schedules bounds the skip. Set it before RunUntil.
func (c *Coordinator) OnWindow(open func(k int)) { c.open = open }

// SetParallel selects goroutine-per-shard window execution. Determinism is
// unaffected — parallel and sequential modes produce identical schedules —
// so this is purely a throughput knob. It may only be toggled while no
// RunUntil is in flight.
func (c *Coordinator) SetParallel(on bool) {
	if c.depth != 0 {
		panic("sim: SetParallel during RunUntil")
	}
	c.parallel = on
}

// Shards returns the shard loops (read-only; used for aggregate stats).
func (c *Coordinator) Shards() []*Loop { return c.shards }

// Ctrl returns the control loop.
func (c *Coordinator) Ctrl() *Loop { return c.ctrl }

// FiredTotal sums executed events across the control loop and all shards.
func (c *Coordinator) FiredTotal() uint64 {
	total := c.ctrl.Fired()
	for _, s := range c.shards {
		total += s.Fired()
	}
	return total
}

// startWorkers spawns one persistent goroutine per shard. The channel
// handshake (cmd send, done receive) establishes the happens-before edges
// that make barrier-time access to shard state race-free.
func (c *Coordinator) startWorkers() {
	c.workers = make([]chan shardCmd, len(c.shards))
	c.done = make([]chan error, len(c.shards))
	for i := range c.shards {
		cmd := make(chan shardCmd)
		done := make(chan error)
		c.workers[i] = cmd
		c.done[i] = done
		go func(k int, cmd <-chan shardCmd, done chan<- error) {
			for w := range cmd {
				done <- c.runShard(k, w)
			}
		}(i, cmd, done)
	}
}

// stopWorkers shuts the per-shard goroutines down; they hold no state, so
// this is leak-free across repeated RunUntil calls (bench iterations).
func (c *Coordinator) stopWorkers() {
	for _, cmd := range c.workers {
		close(cmd)
	}
	c.workers = nil
	c.done = nil
}

// runShards grants the window ending at t to every shard and waits for all
// of them to park there. Sequential mode visits shards in index order; the
// schedule is identical either way.
func (c *Coordinator) runShards(t Time, inclusive bool) error {
	if c.workers != nil {
		for _, cmd := range c.workers {
			cmd <- shardCmd{t: t, inclusive: inclusive}
		}
		var first error
		for _, done := range c.done {
			if err := <-done; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for k := range c.shards {
		if err := c.runShard(k, shardCmd{t: t, inclusive: inclusive}); err != nil {
			return err
		}
	}
	return nil
}

// runShard runs shard k's window.
func (c *Coordinator) runShard(k int, w shardCmd) error {
	if c.open != nil {
		c.open(k)
	}
	if w.inclusive {
		return c.shards[k].RunUntil(w.t)
	}
	return c.shards[k].RunBefore(w.t)
}

// idleWindows returns how many whole lookahead windows from cur, none
// reaching past limit, hold no shard event. The count is taken after the
// barrier's own sends are exchanged (control events may have parked
// cross-shard traffic since the barrier's exchange; injecting it now
// instead of at the next barrier moves no arrival), so it is the same for
// every shard count.
func (c *Coordinator) idleWindows(cur, la, limit Time) int64 {
	if c.everyWindow {
		return 0
	}
	next := c.nextShardEvent()
	if next < cur+la {
		return 0
	}
	if c.exchange != nil {
		c.exchange()
		for k := range c.shards {
			if c.open != nil {
				c.open(k)
			}
		}
		next = c.nextShardEvent()
	}
	if next > limit {
		next = limit
	}
	return int64((next - cur) / la)
}

// nextShardEvent returns the earliest pending event time on any shard.
func (c *Coordinator) nextShardEvent() Time {
	next := Never
	for _, s := range c.shards {
		if w := s.PeekNextEventTime(); w < next {
			next = w
		}
	}
	return next
}

// RunUntil advances the whole simulation to t: all events with When <= t on
// the control loop and every shard loop execute, and every loop is left
// positioned at t. Nested calls (a control callback running the simulation
// further) are permitted and execute sequentially within the outer call's
// barrier.
func (c *Coordinator) RunUntil(t Time) error {
	c.depth++
	if c.depth == 1 && c.parallel && len(c.shards) > 1 {
		c.startWorkers()
	}
	defer func() {
		c.depth--
		if c.depth == 0 && c.workers != nil {
			c.stopWorkers()
		}
	}()

	cur := c.ctrl.Now()
	for {
		// A nested RunUntil may have advanced the control clock while a
		// barrier callback ran; never step backwards.
		if n := c.ctrl.Now(); n > cur {
			cur = n
		}
		// Barrier: merge cross-shard traffic, then let the control loop
		// catch up. Control events at cur run here, before any shard
		// executes a data event at cur.
		c.barriers++
		if c.exchange != nil {
			c.exchange()
		}
		if err := c.ctrl.RunUntil(cur); err != nil {
			return err
		}
		if cur >= t {
			break
		}
		// Next window: bounded by lookahead, the horizon, and the next
		// control event (so control stays ahead of same-time data).
		la := c.lookahead()
		if la <= 0 {
			panic(fmt.Sprintf("sim: non-positive lookahead %d", la))
		}
		limit := t
		if nc := c.ctrl.PeekNextEventTime(); nc < limit {
			limit = nc
		}
		w := cur + la
		if w > limit {
			w = limit
		}
		if idle := c.idleWindows(cur, la, limit); idle > 0 {
			// Nothing anywhere fires before cur+idle·la: those windows
			// would run no event and their barriers would find nothing to
			// exchange, so park the shards at the last of them.
			// Staying on the grid keeps every later barrier where it was.
			w = cur + Time(idle)*la
		}
		if err := c.runShards(w, false); err != nil {
			return err
		}
		cur = w
	}
	// Horizon reached: shards still hold events at exactly t (windows are
	// half-open). Run them inclusively; cross-shard traffic they emit
	// arrives strictly after t and is exchanged by the next call.
	return c.runShards(t, true)
}
