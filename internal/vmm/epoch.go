package vmm

import (
	"fmt"
	"slices"

	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Epoch-based re-synchronization of virtual and real time (Sec. IV-A,
// optional). After each epoch of I instructions, every replica reports the
// real-time duration D over which it executed the epoch and its host real
// time R at the epoch's end. All replicas then re-fit the virtual clock's
// slope from the median R (taking D from that same machine), clamped to
// [ℓ,u].
//
// Determinism demands that all replicas apply the adjustment at the same
// instruction count with the same sample set, so the epoch boundary is a
// barrier: a replica reaching it pauses (in real time — virtual time is
// unaffected) until every group member's sample for that epoch has arrived.
//
// A sample rides the pacing beacon (PaceSink): the boundary exit sends one
// beacon at once, and every later beacon repeats the sample until the next
// boundary, so a lost sample is repaired one PaceInterval later. A peer
// stops repeating its epoch-k sample only at boundary k+1, which it reaches
// after adjusting epoch k (with this replica's sample, so after this replica
// reached boundary k) and running a whole epoch more: a replica waiting at a
// barrier hears each peer's sample repeated for at least an epoch.
//
// Samples are keyed by origin (the sampling replica's host name), and the
// barrier completes against the runtime's group view — the same
// origin-keyed, view-scoped discipline the proposal path uses. That makes
// the sample set immune to duplicate deliveries, lets the cluster shrink
// the group when a member dies (Runtime.SetView unwedges survivors waiting
// on a corpse's sample), and lets a replacement replica adopt the
// survivors' pending samples and join an in-progress barrier (RestoreAt).

// EpochCoordinator manages epoch sampling and barrier synchronization for
// one replica runtime.
type EpochCoordinator struct {
	rt       *Runtime
	interval int64  // instructions per epoch
	self     string // this replica's origin key (host name)

	epoch      int64 // current epoch index (0-based)
	epochStart sim.Time
	samples    []originSample // pending samples, this epoch and the next
	waiting    bool

	// sampled is the epoch of this replica's latest sample (-1: none yet)
	// and mine the sample: what every pacing beacon carries.
	sampled int64
	mine    vtime.EpochSample

	// OnAdjust, when set, observes each applied adjustment's selected star
	// sample — the journaling hook replacement replay re-fits from.
	OnAdjust func(epoch int64, star vtime.EpochSample)

	adjustments int

	// scratch backs the per-adjustment sample sort.
	scratch []vtime.EpochSample
}

// originSample is one replica's sample for one epoch.
type originSample struct {
	origin string
	epoch  int64
	s      vtime.EpochSample
}

// NewEpochCoordinator attaches epoch re-synchronization to a runtime. The
// runtime's host name keys this replica's samples; a barrier completes once
// Runtime.SetView has installed a view and every member's sample is in.
func NewEpochCoordinator(rt *Runtime, interval int64) (*EpochCoordinator, error) {
	if rt == nil {
		return nil, fmt.Errorf("%w: nil runtime", ErrVMM)
	}
	if interval <= 0 || interval%rt.cfg.ExitEvery != 0 {
		return nil, fmt.Errorf("%w: epoch interval %d must be a positive multiple of ExitEvery %d",
			ErrVMM, interval, rt.cfg.ExitEvery)
	}
	ec := &EpochCoordinator{
		rt:         rt,
		interval:   interval,
		self:       rt.Host().Name(),
		epochStart: rt.Host().Loop().Now(),
		sampled:    -1,
	}
	rt.epoch = ec
	return ec, nil
}

// Adjustments reports how many epoch adjustments have been applied.
func (ec *EpochCoordinator) Adjustments() int { return ec.adjustments }

// nextBoundary returns the instruction count that ends the current epoch:
// the epoch row's next.
func (ec *EpochCoordinator) nextBoundary() int64 { return (ec.epoch + 1) * ec.interval }

// onExit is the runtime's epoch row: it runs at an exit at or past
// nextBoundary, and returns true when the runtime must pause at a barrier.
func (ec *EpochCoordinator) onExit() bool {
	if !ec.waiting {
		now := ec.rt.Host().Loop().Now()
		ec.sample(vtime.EpochSample{D: now - ec.epochStart, R: ec.rt.Host().Clock().Read(now)})
		if ec.rt.OnPace != nil {
			ec.rt.beacon()
		}
	}
	return !ec.tryAdjust()
}

// sample takes this replica's sample for the current epoch and waits at its
// barrier.
func (ec *EpochCoordinator) sample(s vtime.EpochSample) {
	ec.waiting = true
	ec.sampled, ec.mine = ec.epoch, s
	ec.addSample(ec.self, ec.epoch, s)
}

// OnPeerSample records a peer's epoch sample and, if the barrier is
// complete and this replica is waiting at it, resumes execution (unless
// pacing still holds it back).
func (ec *EpochCoordinator) OnPeerSample(origin string, epoch int64, s vtime.EpochSample) {
	ec.addSample(origin, epoch, s)
	if ec.waiting && ec.tryAdjust() && !ec.rt.tooFarAhead() {
		ec.rt.ex.resume()
	}
}

func (ec *EpochCoordinator) addSample(origin string, epoch int64, s vtime.EpochSample) {
	if epoch < ec.epoch {
		return // stale, or a beacon that carries no sample
	}
	if _, dup := ec.find(origin, epoch); dup {
		return // first write wins; beacons repeat the sample anyway
	}
	ec.samples = append(ec.samples, originSample{origin: origin, epoch: epoch, s: s})
}

// find returns origin's sample for epoch, if it has arrived.
func (ec *EpochCoordinator) find(origin string, epoch int64) (vtime.EpochSample, bool) {
	for _, p := range ec.samples {
		if p.epoch == epoch && p.origin == origin {
			return p.s, true
		}
	}
	return vtime.EpochSample{}, false
}

// tryAdjust applies the epoch adjustment once a sample from every origin in
// the runtime's view is in (collected in view order into ec.scratch;
// AdjustEpoch sorts it, so arrival order cannot skew the median). It
// returns true when the barrier is released.
func (ec *EpochCoordinator) tryAdjust() bool {
	ec.scratch = ec.scratch[:0]
	for _, o := range ec.rt.live {
		s, ok := ec.find(o, ec.epoch)
		if !ok {
			return false
		}
		ec.scratch = append(ec.scratch, s)
	}
	star, err := ec.rt.vclock.AdjustEpoch(ec.interval, ec.scratch)
	if err != nil {
		// The interval was validated, so the sample set is empty: no view
		// is installed yet, and the barrier stays shut.
		return false
	}
	if ec.OnAdjust != nil {
		ec.OnAdjust(ec.epoch, star)
	}
	ec.adjustments++
	ec.samples = slices.DeleteFunc(ec.samples, func(p originSample) bool { return p.epoch <= ec.epoch })
	ec.epoch++
	ec.epochStart = ec.rt.Host().Loop().Now()
	ec.waiting = false
	return true
}

// RestoreAt primes a replacement replica's coordinator after journal
// replay: the epoch index is read off the restored clock, pending samples
// are adopted from a surviving donor, and — when replay stopped exactly at a
// boundary whose star the survivors are still waiting to resolve — this
// replica samples and joins the barrier (starting paused if the barrier
// stays incomplete, exactly like a survivor that reached the boundary live).
// The sample leaves on the first beacon Runtime.Start sends.
//
// Must be called after the cluster has installed the post-replacement
// view, and before Runtime.Start.
func (ec *EpochCoordinator) RestoreAt(donor *EpochCoordinator) {
	ec.epoch = ec.rt.vclock.EpochBase() / ec.interval
	ec.adjustments = int(ec.epoch)
	now := ec.rt.Host().Loop().Now()
	ec.epochStart = now
	if donor != nil {
		for _, p := range donor.samples {
			ec.addSample(p.origin, p.epoch, p.s)
		}
	}
	if ec.rt.Instr() >= ec.nextBoundary() {
		ec.sample(vtime.EpochSample{D: 0, R: ec.rt.Host().Clock().Read(now)})
		if !ec.tryAdjust() {
			ec.rt.ex.pause()
		}
	}
}
