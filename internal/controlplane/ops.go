package controlplane

// The typed operation model. Every cluster mutation the control plane can
// perform is one value of the Op sum — AdmitOp, EvictOp, ReplaceOp,
// DrainOp, UndrainOp, FailOp, EvacuateOp, RepairOp, MigrateOp — submitted
// through the
// single ControlPlane.Apply entry point. Apply records each submission as
// an Outcome in the append-only operations log (ControlPlane.Log) and
// streams its progress to Watch subscribers, so lifecycle actions in the
// deterministic cloud are themselves serialized, logged and replayable:
// two runs with the same seed produce byte-identical logs.

import (
	"fmt"
	"strings"

	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
)

// OpKind discriminates the Op sum.
type OpKind int

// Operation kinds, in submission-surface order.
const (
	KindAdmit OpKind = iota + 1
	KindEvict
	KindReplace
	KindDrain
	KindUndrain
	KindFail
	KindEvacuate
	KindRepair
	KindMigrate
)

func (k OpKind) String() string {
	switch k {
	case KindAdmit:
		return "admit"
	case KindEvict:
		return "evict"
	case KindReplace:
		return "replace"
	case KindDrain:
		return "drain"
	case KindUndrain:
		return "undrain"
	case KindFail:
		return "fail"
	case KindEvacuate:
		return "evacuate"
	case KindRepair:
		return "repair"
	case KindMigrate:
		return "migrate"
	default:
		return "?"
	}
}

// Op is one control-plane operation: a value of the closed sum below,
// submitted through ControlPlane.Apply.
type Op interface {
	Kind() OpKind
	// String renders the op deterministically for the operations log.
	String() string
}

// opCause distinguishes why a replacement was submitted: directly (a
// reported replica failure), or as one move of a host drain or crash
// evacuation. The evacuation loops set it; external callers leave it zero.
// Stats counts by it, and a drain's move — the only one off a live machine —
// has its barrier freeze the moving replica first.
type opCause int

const (
	causeDirect opCause = iota
	causeDrain
	causeCrash
)

// AdmitOp places a new guest on an edge-disjoint replica triangle and boots
// it. The Outcome carries the deployed Guest and Triangle; an admission the
// pool cannot satisfy fails with ErrRejected (which wraps
// ErrNoFeasibleHost).
type AdmitOp struct {
	GuestID string
	// Factory builds one app instance per replica.
	Factory func() guest.App
	// Done, when non-nil, fires once the op completes. Admissions are
	// synchronous — except under EnablePlannedMigration, where a blocked
	// admission may first run a child MigrateOp and complete later.
	Done func(*Outcome)
}

// Kind returns KindAdmit.
func (AdmitOp) Kind() OpKind { return KindAdmit }

func (op AdmitOp) String() string { return "admit " + op.GuestID }

// EvictOp undeploys a guest and returns its edges and capacity to the pool.
type EvictOp struct {
	GuestID string
}

// Kind returns KindEvict.
func (EvictOp) Kind() OpKind { return KindEvict }

func (op EvictOp) String() string { return "evict " + op.GuestID }

// ReplaceOp re-homes guest GuestID's replica off DeadHost through the
// Sec. VII barrier: pause → quiesce → rehome → replace → resume, each phase
// stamped on the Outcome. Done (optional) observes completion.
type ReplaceOp struct {
	GuestID  string
	DeadHost int
	// Done, when non-nil, fires once the op completes (including a
	// synchronous validation rejection).
	Done func(*Outcome)

	cause opCause
}

// Kind returns KindReplace.
func (ReplaceOp) Kind() OpKind { return KindReplace }

func (op ReplaceOp) String() string {
	return fmt.Sprintf("replace %s off %d", op.GuestID, op.DeadHost)
}

// DrainOp removes Machine from the placement pool and evacuates every
// resident replica sequentially (guest-id order) through child ReplaceOps,
// each logged with this op as parent. Done (optional) observes completion
// with the joined per-resident move errors.
type DrainOp struct {
	Machine int
	Done    func(*Outcome)
}

// Kind returns KindDrain.
func (DrainOp) Kind() OpKind { return KindDrain }

func (op DrainOp) String() string { return fmt.Sprintf("drain %d", op.Machine) }

// UndrainOp returns a drained machine's capacity to the pool.
type UndrainOp struct {
	Machine int
}

// Kind returns KindUndrain.
func (UndrainOp) Kind() OpKind { return KindUndrain }

func (op UndrainOp) String() string { return fmt.Sprintf("undrain %d", op.Machine) }

// FailOp marks Machine crashed: its capacity leaves the pool and — one
// drain window later, once the dead VMM's in-flight proposals settled — every
// resident guest is reconfigured onto its live quorum (PhaseReconfigure);
// the op completes then. Detected marks a submission by the stall detector:
// the machine must already be dead at the data plane (the detector reacted
// to its silence), so the kill step is skipped and a suspicion of a live
// machine is rejected instead of executed.
type FailOp struct {
	Machine  int
	Detected bool
	Done     func(*Outcome)
}

// Kind returns KindFail.
func (FailOp) Kind() OpKind { return KindFail }

func (op FailOp) String() string {
	if op.Detected {
		return fmt.Sprintf("fail %d (detected)", op.Machine)
	}
	return fmt.Sprintf("fail %d", op.Machine)
}

// EvacuateOp re-homes every resident of a crashed machine through child
// ReplaceOps, starting once the post-crash reconfiguration gate opens.
type EvacuateOp struct {
	Machine int
	Done    func(*Outcome)
}

// Kind returns KindEvacuate.
func (EvacuateOp) Kind() OpKind { return KindEvacuate }

func (op EvacuateOp) String() string { return fmt.Sprintf("evacuate %d", op.Machine) }

// RepairOp returns a crashed, evacuated machine to service.
type RepairOp struct {
	Machine int
}

// Kind returns KindRepair.
func (RepairOp) Kind() OpKind { return KindRepair }

func (op RepairOp) String() string { return fmt.Sprintf("repair %d", op.Machine) }

// MigrateOp moves guest GuestID's replica from host From onto host To — a
// planned migration of a live replica through the same freeze + replacement
// barrier a host drain uses (footnote 4: the frozen replica's VMM keeps
// proposing, so the 3-proposal median never stalls, and the survivors are at
// or past its instruction count by switchover). Submitted directly, or as a
// child op when EnablePlannedMigration turns an infeasible Admit/Rehome into
// a one-move plan.
type MigrateOp struct {
	GuestID  string
	From, To int
	// Done, when non-nil, fires once the op completes (including a
	// synchronous validation rejection).
	Done func(*Outcome)
}

// Kind returns KindMigrate.
func (MigrateOp) Kind() OpKind { return KindMigrate }

func (op MigrateOp) String() string {
	return fmt.Sprintf("migrate %s %d->%d", op.GuestID, op.From, op.To)
}

// doneFn extracts an op's optional completion callback.
func doneFn(op Op) func(*Outcome) {
	switch op := op.(type) {
	case AdmitOp:
		return op.Done
	case ReplaceOp:
		return op.Done
	case DrainOp:
		return op.Done
	case FailOp:
		return op.Done
	case EvacuateOp:
		return op.Done
	case MigrateOp:
		return op.Done
	default:
		return nil
	}
}

// Phase is one stage of an operation's execution, stamped on the Outcome as
// it is reached and streamed as a PhaseReached event.
type Phase string

// Operation phases. Replacements run the five-stage Sec. VII barrier;
// whole-machine ops mark their coarser milestones.
const (
	PhasePlace       Phase = "place"       // admit: triangle committed in the pool
	PhaseDeploy      Phase = "deploy"      // admit: replicas wired and booted
	PhaseRelease     Phase = "release"     // evict: wiring torn down, edges returned
	PhasePause       Phase = "pause"       // replace: ingress stream paused
	PhaseQuiesce     Phase = "quiesce"     // replace: no unresolved delivery proposals
	PhaseRehome      Phase = "rehome"      // replace: pool moved the replica
	PhaseReplace     Phase = "replace"     // replace: data-plane switchover done
	PhaseResume      Phase = "resume"      // replace: ingress resumed, buffer flushed
	PhaseDrain       Phase = "drain"       // drain/fail: capacity left the pool
	PhaseUndrain     Phase = "undrain"     // undrain: capacity returned to the pool
	PhaseReconcile   Phase = "reconcile"   // fail: survivor exchange repaired lost proposals
	PhaseReconfigure Phase = "reconfigure" // fail: live-quorum groups installed
	PhaseEvacuate    Phase = "evacuate"    // drain/evacuate: resident moves started
	PhasePlan        Phase = "plan"        // admit/replace: infeasible request got a migration plan
)

// PhaseTiming stamps when an operation reached a phase.
type PhaseTiming struct {
	Phase Phase
	At    sim.Time
}

// PoolDelta records the placement pool's aggregate state around an
// operation.
type PoolDelta struct {
	GuestsBefore, GuestsAfter int
	UtilBefore, UtilAfter     float64
}

// Outcome is one operation's record in the operations log. Apply returns it
// at submission; asynchronous ops (replace, drain, fail, evacuate) fill in
// phases and the result as the simulation advances — watch Done(), the
// op's Done callback, or the event stream for completion. Stats is a pure
// fold over these records (FoldStats); nothing else counts decisions.
//
// Outcomes are managed strictly by pointer (Apply and Log hand out
// *Outcome): do not copy an Outcome value — the exported Phases/Guests
// slices are backed by inline buffers, so a value copy aliases the
// original log entry's arrays.
type Outcome struct {
	// Seq is the op's position in the log, from 1.
	Seq uint64
	Op  Op
	// Parent is the Seq of the op that submitted this one (a drain or
	// evacuation submitting per-resident ReplaceOps); 0 for top-level ops.
	Parent uint64

	Submitted sim.Time
	Completed sim.Time

	// Err is the typed result: nil on success, ErrRejected /
	// ErrNoFeasibleHost / ErrControlPlane wraps otherwise; check with
	// errors.Is.
	Err error

	// Phases are the barrier milestones reached, in order.
	Phases []PhaseTiming
	// QuiesceRetries counts quiescence re-checks beyond the first.
	QuiesceRetries int

	// ReconcileRounds/Repairs carry a FailOp's pre-commit survivor exchange:
	// guest groups that exchanged, and sequences repaired at importers (zero
	// on a loss-free fabric).
	ReconcileRounds  int
	ReconcileRepairs int

	// Guests lists the affected guest ids (the admitted/evicted/replaced
	// guest; a whole-machine op's residents at submission).
	Guests []string
	// Guest and Triangle carry an AdmitOp's result; Triangle also carries a
	// completed ReplaceOp's post-move triangle.
	Guest    *core.Guest
	Triangle placement.Triangle

	Pool PoolDelta

	done bool

	// phasesBuf/guestsBuf back Phases and Guests for typical sizes so
	// opening and advancing an outcome does not allocate per phase or per
	// single-guest op.
	phasesBuf [6]PhaseTiming
	guestsBuf [1]string
}

// setGuest records a single-guest op's affected id without allocating.
func (oc *Outcome) setGuest(id string) {
	oc.guestsBuf[0] = id
	oc.Guests = oc.guestsBuf[:1]
}

// Done reports whether the operation has completed (Err is final).
func (oc *Outcome) Done() bool { return oc.done }

// Rejected reports a validation rejection: the op completed with an error
// before reaching any phase (no barrier ran, no state changed).
func (oc *Outcome) Rejected() bool {
	return oc.done && oc.Err != nil && len(oc.Phases) == 0
}

// PhaseAt returns when the op reached the phase.
func (oc *Outcome) PhaseAt(p Phase) (sim.Time, bool) {
	for _, pt := range oc.Phases {
		if pt.Phase == p {
			return pt.At, true
		}
	}
	return 0, false
}

// String renders the outcome deterministically for the operations log.
func (oc *Outcome) String() string {
	status := "pending"
	switch {
	case oc.done && oc.Err == nil:
		status = "ok"
	case oc.done:
		status = "err=" + oc.Err.Error()
	}
	phases := make([]string, len(oc.Phases))
	for i, pt := range oc.Phases {
		phases[i] = fmt.Sprintf("%s@%d", pt.Phase, int64(pt.At))
	}
	// The reconcile segment renders only when the exchange repaired
	// something: loss-free runs keep their historical log bytes (and
	// digests) unchanged.
	reconcile := ""
	if oc.ReconcileRepairs > 0 {
		reconcile = fmt.Sprintf(" reconcile=%d/%d", oc.ReconcileRounds, oc.ReconcileRepairs)
	}
	return fmt.Sprintf("#%04d %s sub=%d done=%d parent=%d retries=%d guests=%v pool=%d→%d%s phases=[%s] %s",
		oc.Seq, oc.Op, int64(oc.Submitted), int64(oc.Completed), oc.Parent,
		oc.QuiesceRetries, oc.Guests, oc.Pool.GuestsBefore, oc.Pool.GuestsAfter,
		reconcile, strings.Join(phases, " "), status)
}
