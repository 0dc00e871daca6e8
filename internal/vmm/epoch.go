package vmm

import (
	"fmt"
	"sort"

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
// Samples are keyed by origin (the sampling replica's host name), and the
// barrier completes against the current replica group — the same
// origin-keyed, group-scoped discipline the proposal path uses. That makes
// the sample set immune to duplicate deliveries, lets the cluster shrink
// the group when a member dies (SetGroup unwedges survivors waiting on a
// corpse's sample), and lets a replacement replica adopt the survivors'
// pending samples and join an in-progress barrier (RestoreAt).

// EpochCoordinator manages epoch sampling and barrier synchronization for
// one replica runtime.
type EpochCoordinator struct {
	rt       *Runtime
	interval int64  // instructions per epoch
	replicas int    // fallback barrier width until SetGroup
	self     string // this replica's origin key (host name)

	epoch      int64 // current epoch index (0-based)
	epochStart sim.Time
	samples    map[int64]map[string]vtime.EpochSample // epoch → origin → sample
	group      []string                               // live origins; empty until SetGroup
	waiting    bool

	// SendSample broadcasts this replica's sample for an epoch (wired by
	// the cluster to the peer coordinators; the fabric carries the origin).
	SendSample func(epoch int64, s vtime.EpochSample)
	// OnAdjust, when set, observes each applied adjustment's selected star
	// sample — the journaling hook replacement replay re-fits from.
	OnAdjust func(epoch int64, star vtime.EpochSample)

	adjustments int

	// scratch backs the per-adjustment sample sort.
	scratch []vtime.EpochSample
}

// NewEpochCoordinator attaches epoch re-synchronization to a runtime. The
// runtime's host name keys this replica's samples; until SetGroup installs
// explicit membership, a barrier completes at `replicas` distinct origins.
func NewEpochCoordinator(rt *Runtime, interval int64, replicas int) (*EpochCoordinator, error) {
	if rt == nil {
		return nil, fmt.Errorf("%w: nil runtime", ErrVMM)
	}
	if interval <= 0 || interval%rt.cfg.ExitEvery != 0 {
		return nil, fmt.Errorf("%w: epoch interval %d must be a positive multiple of ExitEvery %d",
			ErrVMM, interval, rt.cfg.ExitEvery)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("%w: replicas %d", ErrVMM, replicas)
	}
	ec := &EpochCoordinator{
		rt:       rt,
		interval: interval,
		replicas: replicas,
		self:     rt.Host().Name(),
		samples:  make(map[int64]map[string]vtime.EpochSample),
	}
	ec.epochStart = rt.Host().Loop().Now()
	rt.epoch = ec
	return ec, nil
}

// Adjustments reports how many epoch adjustments have been applied.
func (ec *EpochCoordinator) Adjustments() int { return ec.adjustments }

// SetGroup installs the live replica group (origins, self included). Called
// by the cluster whenever membership changes; a shrink re-evaluates the
// barrier, so survivors waiting on a dead member's sample unwedge
// deterministically.
func (ec *EpochCoordinator) SetGroup(origins []string) {
	ec.group = append(ec.group[:0], origins...)
	if ec.waiting && ec.tryAdjust() && !ec.rt.tooFarAhead() {
		ec.rt.ex.resume()
	}
}

// nextBoundary returns the instruction count that ends the current epoch:
// the first exit at or past it is the first onExit acts on.
func (ec *EpochCoordinator) nextBoundary() int64 { return (ec.epoch + 1) * ec.interval }

// onExit is called by the runtime at every guest-caused exit it does not
// skip, after instr has advanced. It returns true when the runtime must
// pause at a barrier.
func (ec *EpochCoordinator) onExit(instr int64) bool {
	if instr < ec.nextBoundary() {
		return false
	}
	if !ec.waiting {
		ec.waiting = true
		now := ec.rt.Host().Loop().Now()
		s := vtime.EpochSample{
			D: now - ec.epochStart,
			R: ec.rt.Host().Clock().Read(now),
		}
		ec.addSample(ec.self, ec.epoch, s)
		if ec.SendSample != nil {
			ec.SendSample(ec.epoch, s)
		}
	}
	return !ec.tryAdjust()
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
		return // stale
	}
	m := ec.samples[epoch]
	if m == nil {
		m = make(map[string]vtime.EpochSample)
		ec.samples[epoch] = m
	}
	if _, dup := m[origin]; dup {
		return // first write wins; replicas send identical values anyway
	}
	m[origin] = s
}

// barrierSamples collects the current epoch's samples for the live group
// into ec.scratch, reporting whether the barrier is complete. With explicit
// membership, completeness means a sample from every live origin; before
// SetGroup it falls back to `replicas` distinct origins (order-insensitive
// either way, so arrival order cannot skew the median).
func (ec *EpochCoordinator) barrierSamples() bool {
	got := ec.samples[ec.epoch]
	ec.scratch = ec.scratch[:0]
	if len(ec.group) > 0 {
		for _, o := range ec.group {
			s, ok := got[o]
			if !ok {
				return false
			}
			ec.scratch = append(ec.scratch, s)
		}
		return true
	}
	if len(got) < ec.replicas {
		return false
	}
	for _, s := range got {
		ec.scratch = append(ec.scratch, s)
	}
	// Deterministic order for the map-collected fallback.
	sort.Slice(ec.scratch, func(i, j int) bool {
		if ec.scratch[i].R != ec.scratch[j].R {
			return ec.scratch[i].R < ec.scratch[j].R
		}
		return ec.scratch[i].D < ec.scratch[j].D
	})
	ec.scratch = ec.scratch[:ec.replicas]
	return true
}

// tryAdjust applies the epoch adjustment when all samples are in. It
// returns true when the barrier is released.
func (ec *EpochCoordinator) tryAdjust() bool {
	if !ec.barrierSamples() {
		return false
	}
	s := ec.scratch
	if err := ec.rt.vclock.AdjustEpoch(ec.interval, s); err != nil {
		// Cannot happen with validated parameters; drop the epoch rather
		// than diverge silently.
		return true
	}
	if ec.OnAdjust != nil {
		// Recompute the star AdjustEpoch selected (same sort, same pick).
		sort.Slice(s, func(i, j int) bool {
			if s[i].R != s[j].R {
				return s[i].R < s[j].R
			}
			return s[i].D < s[j].D
		})
		ec.OnAdjust(ec.epoch, s[len(s)/2])
	}
	ec.adjustments++
	delete(ec.samples, ec.epoch)
	ec.epoch++
	ec.epochStart = ec.rt.Host().Loop().Now()
	ec.waiting = false
	return true
}

// RestoreAt primes a replacement replica's coordinator after journal
// replay: the epoch index is read off the restored clock, pending samples
// for the in-progress epoch are adopted from a surviving donor, and — when
// replay stopped exactly at a boundary whose star the survivors are still
// waiting to resolve — this replica samples, broadcasts, and joins the
// barrier (starting paused if the barrier stays incomplete, exactly like a
// survivor that reached the boundary live).
//
// Must be called after the cluster has wired SendSample and installed the
// post-replacement group, and before Runtime.Start.
func (ec *EpochCoordinator) RestoreAt(donor *EpochCoordinator) {
	ec.epoch = ec.rt.vclock.EpochBase() / ec.interval
	ec.adjustments = int(ec.epoch)
	now := ec.rt.Host().Loop().Now()
	ec.epochStart = now
	if donor != nil {
		for origin, s := range donor.samples[ec.epoch] {
			ec.addSample(origin, ec.epoch, s)
		}
	}
	if ec.rt.Instr() >= ec.nextBoundary() {
		ec.waiting = true
		s := vtime.EpochSample{D: 0, R: ec.rt.Host().Clock().Read(now)}
		ec.addSample(ec.self, ec.epoch, s)
		if ec.SendSample != nil {
			ec.SendSample(ec.epoch, s)
		}
		if !ec.tryAdjust() {
			ec.rt.ex.pause()
		}
	}
}
