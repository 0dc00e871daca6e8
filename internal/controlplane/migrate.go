package controlplane

// Planned migration: moving a live replica between healthy hosts. A
// MigrateOp is the one replica-move barrier (moveReplica, controlplane.go)
// with the moving replica frozen first — its VMM keeps proposing, the
// paper's footnote-4 regime, so the 3-proposal median never stalls — and
// with the pool step pinned to the requested destination (RehomeTo).
//
// EnablePlannedMigration additionally turns placement infeasibility into
// plans: an Admit or replacement Rehome the pool cannot satisfy first asks
// the one-move planner (placement.PlanAdmitMigration / PlanRehomeMigration)
// for a single migration that would unblock it, runs that move as a child
// MigrateOp (logged with the blocked op as parent), and retries. Plans never
// nest — a planned migration's own placement is pinned — and the planner
// never moves a guest another lifecycle op holds. Off by default, so
// existing runs place, and log, exactly as before.

import (
	"fmt"

	"stopwatch/internal/placement"
)

// EnablePlannedMigration turns the one-move migration planner on.
func (cp *ControlPlane) EnablePlannedMigration() { cp.planned = true }

// migrationAvoid excludes guests another lifecycle op holds — the planner
// must not move a guest whose barrier is mid-flight.
func (cp *ControlPlane) migrationAvoid(id string) bool {
	_, busy := cp.inflight[id]
	return busy
}

// applyMigrate moves guest id's replica From → To: the barrier with the
// moving replica frozen first and the destination pinned (RehomeTo) instead
// of scanned for.
func (cp *ControlPlane) applyMigrate(op MigrateOp, oc *Outcome) {
	id := op.GuestID
	err := cp.movable(id, op.From)
	switch {
	case err != nil: // the checks every move shares come first
	case op.To < 0 || op.To >= cp.c.Hosts():
		err = fmt.Errorf("%w: host %d out of range", ErrControlPlane, op.To)
	case cp.Failed(op.From):
		err = fmt.Errorf("%w: host %d is crashed — replace its replicas, don't migrate them", ErrControlPlane, op.From)
	case cp.Failed(op.To):
		err = fmt.Errorf("%w: host %d is failed", ErrControlPlane, op.To)
	}
	if err != nil {
		cp.finish(oc, err)
		return
	}
	cp.moveReplica(oc, id, op.From, "migration", true, func(then func(placement.Triangle, int, error)) {
		newTri, err := cp.pool.RehomeTo(id, op.From, op.To)
		then(newTri, op.To, err)
	})
}
