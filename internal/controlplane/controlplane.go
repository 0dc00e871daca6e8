// Package controlplane is the online orchestrator over the StopWatch
// cluster: it owns the live host inventory (capacity, residency, used K_n
// edges) and serves the guest lifecycle a real cloud needs.
//
// Every mutation is one value of the typed Op sum — AdmitOp, EvictOp,
// ReplaceOp, DrainOp, UndrainOp, FailOp, EvacuateOp, RepairOp, MigrateOp —
// submitted
// through the single entry point Apply, which returns a structured Outcome
// (typed result, per-phase barrier timings, affected guests, pool deltas),
// appends it to the operations log (Log), and streams progress to Watch
// subscribers. Stats is a pure fold over the log. Apply is the only
// mutating method: there are no per-verb wrappers.
//
// A replica changes machine in exactly one way — moveReplica, the Sec. VII
// barrier (pause → quiesce → place → replace → resume). A crash replacement,
// a planned migration, a drain's per-resident move and an evacuation's are
// that barrier with a different place step and a different answer to
// "freeze the moving replica first?".
//
// The data plane (cluster, VMMs, gateways) stays mechanism; every policy
// decision — which triangle, which replacement host, when a switchover is
// safe, when a silent machine is declared dead (EnableStallDetector) —
// lives here.
package controlplane

import (
	"errors"
	"fmt"

	"stopwatch/internal/core"
	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
)

// Config tunes the control plane.
type Config struct {
	// Capacity is the per-host replica capacity the pool enforces
	// (placement Theorem 2's c). Required, positive. Keep c <= (n-1)/2 if
	// you want the Theorem-2 guarantees to describe the regime.
	Capacity int
}

// DefaultConfig returns control-plane defaults for the paper's LAN regime.
func DefaultConfig(capacity int) Config {
	return Config{Capacity: capacity}
}

const (
	// drainWindow is how long the replacement barrier waits after pausing a
	// guest's ingress stream before checking quiescence, and how far apart
	// every bounded wait looks (recheck). It covers a fabric round trip plus
	// Dom0 processing, so in-flight packets and proposals settle; a crash's
	// view commits one drainWindow after the crash for the same reason.
	drainWindow = 50 * sim.Millisecond
	// maxDrainAttempts bounds those looks before a wait gives up.
	maxDrainAttempts = 40
	// reconcileSettle is when, after a crash, the survivors exchange their
	// proposal state: past the dead VMM's in-flight proposals, so the
	// exchange carries every vote the fabric was going to deliver, and well
	// before the view commits at drainWindow.
	reconcileSettle = 5 * sim.Millisecond
)

// ControlPlane orchestrates guest lifecycle over a running cluster.
type ControlPlane struct {
	c    *core.Cluster
	pool *placement.Pool

	// log is the append-only operation record; every Apply opens an entry.
	log opLog
	// watchers are the live Watch subscriptions, in subscription order.
	watchers []*watcher

	// inflight guards per-guest lifecycle exclusivity (a guest being
	// replaced must not concurrently evict).
	inflight map[string]string

	// draining marks machines with an evacuation in progress (drained in
	// the pool, residents not yet all moved).
	draining map[int]bool

	// failures tracks crashed machines (FailOp → RepairOp). Each failure
	// epoch is one *hostFailure; pointer identity doubles as the epoch
	// check, so a reconfiguration closure scheduled in one epoch cannot
	// open a later epoch's evacuation gate.
	failures map[int]*hostFailure

	// planned: one-move migration planning for infeasible placements
	// (migrate.go). Off by default — rejections then match the seed exactly.
	planned bool
}

// New builds a control plane over the cluster. It admits StopWatch guests of
// 3 replicas (replica triangles are what the placement theory packs), so on
// a cluster of fewer than three machines every admission is rejected.
func New(c *core.Cluster, cfg Config) (*ControlPlane, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil cluster", ErrControlPlane)
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity %d", ErrControlPlane, cfg.Capacity)
	}
	pool, err := placement.NewPool(c.Hosts(), cfg.Capacity)
	if err != nil {
		return nil, err
	}
	return &ControlPlane{
		c:        c,
		pool:     pool,
		inflight: make(map[string]string),
		draining: make(map[int]bool),
		failures: make(map[int]*hostFailure),
	}, nil
}

// Cluster returns the governed cluster.
func (cp *ControlPlane) Cluster() *core.Cluster { return cp.c }

// Pool returns the live placement pool (read it, don't mutate around the
// control plane).
func (cp *ControlPlane) Pool() *placement.Pool { return cp.pool }

// Utilization returns resident replicas over total capacity, in [0,1].
func (cp *ControlPlane) Utilization() float64 { return cp.pool.Utilization() }

// InFlight reports whether a lifecycle operation (e.g. a replacement
// barrier) is in progress for the guest, and which. Failure injectors
// should pick a different victim while one is.
func (cp *ControlPlane) InFlight(id string) (string, bool) {
	op, busy := cp.inflight[id]
	return op, busy
}

// Apply submits one operation. The returned Outcome is the op's permanent
// record in the operations log: synchronous ops (admit, evict, undrain,
// repair) complete before Apply returns; asynchronous ops (replace, drain,
// fail, evacuate) complete as the simulation advances — observe completion
// via Outcome.Done, the op's Done callback, or the Watch event stream. A
// validation rejection completes immediately with Outcome.Rejected() true
// and no state changed.
func (cp *ControlPlane) Apply(op Op) *Outcome {
	return cp.apply(op, 0)
}

// apply opens the log entry and dispatches; parent links a child op (an
// evacuation's per-resident move) to the op that submitted it.
func (cp *ControlPlane) apply(op Op, parent uint64) *Outcome {
	oc := cp.log.open(op, parent, cp.c.Loop().Now(), cp.pool.Guests(), cp.pool.Utilization())
	if op == nil {
		cp.finish(oc, fmt.Errorf("%w: nil op", ErrControlPlane))
		return oc
	}
	cp.emit(Event{Kind: OpStarted, Seq: oc.Seq, Parent: oc.Parent, Op: op, At: oc.Submitted})
	switch op := op.(type) {
	case AdmitOp:
		cp.applyAdmit(op, oc)
	case EvictOp:
		cp.applyEvict(op, oc)
	case ReplaceOp:
		cp.applyReplace(op, oc)
	case DrainOp:
		cp.applyDrain(op, oc)
	case UndrainOp:
		cp.applyUndrain(op, oc)
	case FailOp:
		cp.applyFail(op, oc)
	case EvacuateOp:
		cp.applyEvacuate(op, oc)
	case RepairOp:
		cp.applyRepair(op, oc)
	case MigrateOp:
		cp.applyMigrate(op, oc)
	default:
		cp.finish(oc, fmt.Errorf("%w: unknown op %T", ErrControlPlane, op))
	}
	return oc
}

// phase stamps the outcome with a reached phase and streams it.
func (cp *ControlPlane) phase(oc *Outcome, p Phase) {
	at := cp.c.Loop().Now()
	oc.Phases = append(oc.Phases, PhaseTiming{Phase: p, At: at})
	cp.emit(Event{Kind: PhaseReached, Seq: oc.Seq, Parent: oc.Parent, Op: oc.Op, Phase: p, At: at})
}

// finish completes an outcome: final error, completion time, post-op pool
// state, the completion event, and the op's Done callback — in that order,
// so a callback already observes the finished record.
func (cp *ControlPlane) finish(oc *Outcome, err error) {
	oc.Err = err
	oc.done = true
	oc.Completed = cp.c.Loop().Now()
	oc.Pool.GuestsAfter = cp.pool.Guests()
	oc.Pool.UtilAfter = cp.pool.Utilization()
	kind := OpCompleted
	if err != nil {
		kind = OpFailed
	}
	cp.emit(Event{Kind: kind, Seq: oc.Seq, Parent: oc.Parent, Op: oc.Op, At: oc.Completed, Err: err})
	if done := doneFn(oc.Op); done != nil {
		done(oc)
	}
}

// applyAdmit places and deploys a new guest on an edge-disjoint triangle.
// When the pool has no capacity the guest is rejected with ErrRejected;
// any deployment error rolls the placement back.
func (cp *ControlPlane) applyAdmit(op AdmitOp, oc *Outcome) {
	id := op.GuestID
	if op.Factory == nil {
		cp.finish(oc, fmt.Errorf("%w: admit %q needs an app factory", ErrControlPlane, id))
		return
	}
	if verb, busy := cp.inflight[id]; busy {
		cp.finish(oc, fmt.Errorf("%w: guest %q has a %s in flight", ErrControlPlane, id, verb))
		return
	}
	cp.placeAndDeploy(op, oc, cp.planned)
}

// placeAndDeploy is one placement attempt of an admission: ask the pool for
// a triangle, deploy on it, complete the outcome. With plan set, an
// infeasible placement that is one replica move away from feasible runs
// that move as a child MigrateOp (logged with the admission as parent) and
// tries once more with plan off — plans never nest. The admission, normally
// synchronous, completes asynchronously on that path; observe it via
// AdmitOp.Done, the outcome, or the event stream.
func (cp *ControlPlane) placeAndDeploy(op AdmitOp, oc *Outcome, plan bool) {
	id := op.GuestID
	tri, err := cp.pool.Admit(id)
	if errors.Is(err, placement.ErrNoFeasibleHost) {
		if plan {
			if mp, ok := cp.pool.PlanAdmitMigration(id, cp.migrationAvoid); ok {
				oc.setGuest(id)
				cp.phase(oc, PhasePlan)
				cp.inflight[id] = "admission"
				cp.apply(MigrateOp{GuestID: mp.GuestID, From: mp.From, To: mp.To, Done: func(moc *Outcome) {
					delete(cp.inflight, id)
					if moc.Err != nil {
						cp.finish(oc, fmt.Errorf("%w: admit %q: planned migration failed: %v", ErrRejected, id, moc.Err))
						return
					}
					// The move ran in simulated time; the packing may have
					// shifted under other ops, so the retry re-decides from
					// the live pool.
					cp.placeAndDeploy(op, oc, false)
				}}, oc.Seq)
				return
			}
		}
		err = fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if err != nil {
		cp.finish(oc, err)
		return
	}
	oc.setGuest(id)
	cp.phase(oc, PhasePlace)
	g, err := cp.c.Deploy(id, tri[:], op.Factory)
	if err != nil {
		_, _ = cp.pool.Release(id)
		if cp.refusedAsDead(err) {
			// Each retry has one machine fewer to offer, so this ends within
			// Hosts() tries, on a triangle or on ErrNoFeasibleHost.
			cp.placeAndDeploy(op, oc, plan)
			return
		}
		cp.finish(oc, err)
		return
	}
	oc.Guest, oc.Triangle = g, tri
	cp.phase(oc, PhaseDeploy)
	cp.finish(oc, nil)
}

// applyEvict undeploys a guest and returns its edges and capacity to the
// pool.
func (cp *ControlPlane) applyEvict(op EvictOp, oc *Outcome) {
	id := op.GuestID
	if verb, busy := cp.inflight[id]; busy {
		cp.finish(oc, fmt.Errorf("%w: guest %q has a %s in flight", ErrControlPlane, id, verb))
		return
	}
	if _, ok := cp.pool.Triangle(id); !ok {
		cp.finish(oc, fmt.Errorf("%w: guest %q not resident", ErrControlPlane, id))
		return
	}
	oc.setGuest(id)
	if err := cp.c.Undeploy(id); err != nil {
		cp.finish(oc, err)
		return
	}
	if _, err := cp.pool.Release(id); err != nil {
		cp.finish(oc, err)
		return
	}
	cp.phase(oc, PhaseRelease)
	cp.finish(oc, nil)
}

// applyReplace re-homes guest id's replica off op.DeadHost (reported failed
// by whatever detector submitted the op, or being emptied by a drain or an
// evacuation) onto the least-loaded fresh host whose edges to both
// survivors are free. Under EnablePlannedMigration a re-home the pool cannot
// satisfy first asks the one-move planner for a migration of some other
// guest that would unblock it, runs that as a child MigrateOp — the guest
// stays paused and quiescent throughout: its ingress is shut and no new
// proposals can arrive — and retries.
func (cp *ControlPlane) applyReplace(op ReplaceOp, oc *Outcome) {
	id, dead := op.GuestID, op.DeadHost
	if err := cp.movable(id, dead); err != nil {
		cp.finish(oc, err)
		return
	}
	// A drain's machine is alive, so its replica is frozen by the barrier;
	// a crashed replica (direct report, evacuation) is already stopped.
	cp.moveReplica(oc, id, dead, "replacement", op.cause == causeDrain, func(then func(placement.Triangle, int, error)) {
		newTri, newHost, err := cp.pool.Rehome(id, dead)
		if err == nil || !cp.planned || !errors.Is(err, placement.ErrNoFeasibleHost) {
			then(newTri, newHost, err)
			return
		}
		plan, ok := cp.pool.PlanRehomeMigration(id, dead, cp.migrationAvoid)
		if !ok {
			then(newTri, newHost, err)
			return
		}
		cp.phase(oc, PhasePlan)
		cp.apply(MigrateOp{GuestID: plan.GuestID, From: plan.From, To: plan.To, Done: func(moc *Outcome) {
			if moc.Err != nil {
				then(newTri, newHost, errors.Join(err, fmt.Errorf("planned migration: %w", moc.Err)))
				return
			}
			then(cp.pool.Rehome(id, dead))
		}}, oc.Seq)
	})
}

// movable validates the request every replica move starts from: no other
// lifecycle op holds the guest, it is resident, and it has a replica on
// from.
func (cp *ControlPlane) movable(id string, from int) error {
	if verb, busy := cp.inflight[id]; busy {
		return fmt.Errorf("%w: guest %q has a %s in flight", ErrControlPlane, id, verb)
	}
	tri, ok := cp.pool.Triangle(id)
	if !ok {
		return fmt.Errorf("%w: guest %q not resident", ErrControlPlane, id)
	}
	if !tri.Contains(from) {
		return fmt.Errorf("%w: guest %q has no replica on host %d", ErrControlPlane, id, from)
	}
	return nil
}

// moveReplica is the one way a replica changes machine: the Sec. VII
// barrier, for the replica of the validated (movable) guest id that is
// leaving machine from. The protocol, all in simulated time:
//
//  1. with freeze, halt the moving replica's guest execution while its VMM
//     keeps proposing (the paper's footnote-4 regime, so the 3-proposal
//     median never stalls): the survivors reach or pass its instruction
//     count, and the journal replay lands on a consistent cut. A crashed
//     replica is already stopped and is not frozen;
//  2. pause the guest's ingress stream (client packets buffer at the edge);
//  3. wait drainWindow for in-flight fabric traffic and delivery proposals
//     to settle, re-checking up to maxDrainAttempts times;
//  4. place: the caller's step moves the replica in the placement pool and
//     names the machine it landed on (it may complete later — a planned
//     detour runs a whole child barrier first);
//  5. reconstruct the replica there from the survivors' journal and switch
//     the replica groups over (core.Cluster.ReplaceReplica), rolling the
//     pool back if that fails — and, if it failed because the chosen machine
//     is dead (refusedAsDead), going back to step 4 without that machine;
//  6. resume the ingress stream, flushing the buffered packets.
//
// verb names the move in the in-flight table ("replacement", "migration")
// and so in other ops' rejection text. On failure the ingress is resumed
// and the guest keeps serving degraded on its live pair; a frozen replica
// stays frozen.
func (cp *ControlPlane) moveReplica(oc *Outcome, id string, from int, verb string, freeze bool, place func(then func(placement.Triangle, int, error))) {
	tri, _ := cp.pool.Triangle(id)
	oc.setGuest(id)
	cp.inflight[id] = verb
	if g, ok := cp.c.Guest(id); freeze && ok {
		if slot, on := g.SlotOnHost(from); on {
			g.Replica(slot).Runtime().Stop()
		}
	}
	cp.c.Ingress().Pause(id)
	cp.phase(oc, PhasePause)
	done := func(err error) {
		delete(cp.inflight, id)
		if err != nil {
			cp.c.Ingress().Resume(id)
		}
		cp.finish(oc, err)
	}
	settled := func(quiescent bool) {
		if !quiescent {
			done(fmt.Errorf("%w: guest %q never quiesced after %d drain windows", ErrControlPlane, id, maxDrainAttempts))
			return
		}
		cp.phase(oc, PhaseQuiesce)
		var placed func(placement.Triangle, int, error)
		placed = func(newTri placement.Triangle, to int, err error) {
			if err != nil {
				done(err)
				return
			}
			cp.phase(oc, PhaseRehome)
			if err := cp.c.ReplaceReplica(id, from, to); err != nil {
				// Roll the pool back to the original triangle: the data plane
				// still has the old replica on from. Everything since the
				// place step's pool move is one simulated instant, so the
				// freed edges cannot have been claimed in between. A
				// rollback failure leaves pool and cluster divergent — join
				// it into the outcome so it is never swallowed; Verify()
				// flags the divergence it leaves.
				if _, rbErr := cp.pool.Release(id); rbErr != nil {
					err = errors.Join(err, fmt.Errorf("rollback release %q: %w", id, rbErr))
				} else if rbErr := cp.pool.AdmitTriangle(id, tri); rbErr != nil {
					err = errors.Join(err, fmt.Errorf("rollback restore %q on %v: %w", id, tri, rbErr))
				} else if cp.refusedAsDead(err) {
					// The pool is back where the place step found it, less the
					// dead machine: a scan picks another, a pinned move fails.
					place(placed)
					return
				}
				done(err)
				return
			}
			oc.Triangle = newTri
			cp.phase(oc, PhaseReplace)
			cp.c.Ingress().Resume(id)
			cp.phase(oc, PhaseResume)
			done(nil)
		}
		place(placed)
	}
	cp.c.Loop().After(drainWindow, "cp:drain", func() {
		cp.recheck("cp:drain", &oc.QuiesceRetries, func() bool { return cp.c.GuestQuiescent(id) }, settled)
	})
}

// recheck is the control plane's one bounded wait (the quiescence barrier,
// an evacuation's busy resident and its reconfiguration gate, each under its
// own event label): it looks at ok now and then every drainWindow until it
// holds, maxDrainAttempts looks at most, and hands then the last answer.
// Each wait is counted in *waits (when given) as it begins, so an op still
// waiting when the run ends has its retries on the log.
func (cp *ControlPlane) recheck(label string, waits *int, ok func() bool, then func(held bool)) {
	looks := 0
	var look func()
	look = func() {
		looks++
		if held := ok(); held || looks >= maxDrainAttempts {
			then(held)
			return
		}
		if waits != nil {
			*waits++
		}
		cp.c.Loop().After(drainWindow, label, look)
	}
	look()
}

// Verify checks the control plane's placement invariants (edge-disjoint
// triangles, capacity, bookkeeping) and that the pool agrees with the
// cluster's deployed residency — in both directions, so a half-completed
// rollback (pool lost a guest the cluster still runs) cannot hide. With no
// ids it audits the whole fleet; with ids, those guests and the pool's O(1)
// bookkeeping (placement.Pool.Verify), which is what a driver auditing after
// every completed op passes (Outcome.Guests), keeping the whole-fleet audit
// for the end of the run.
func (cp *ControlPlane) Verify(ids ...string) error {
	if err := cp.pool.Verify(ids...); err != nil {
		return err
	}
	if len(ids) == 0 {
		ids = append(cp.c.GuestIDs(), cp.pool.IDs()...)
	}
	for _, id := range ids {
		g, deployed := cp.c.Guest(id)
		tri, placed := cp.pool.Triangle(id)
		switch {
		case !deployed && !placed:
			continue // departed, or never admitted
		case !placed:
			return fmt.Errorf("%w: cluster deploys %q but the pool does not hold it", ErrControlPlane, id)
		case !deployed:
			return fmt.Errorf("%w: pool holds %q but cluster does not", ErrControlPlane, id)
		}
		hosts := g.HostIndexes()
		if len(hosts) != 3 {
			return fmt.Errorf("%w: guest %q has %d replicas", ErrControlPlane, id, len(hosts))
		}
		for _, h := range hosts {
			if !tri.Contains(h) {
				return fmt.Errorf("%w: guest %q deployed on %v, pool says %v", ErrControlPlane, id, hosts, tri)
			}
		}
	}
	return nil
}
