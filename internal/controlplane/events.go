package controlplane

// The operation event stream. Watch subscribes a callback to every
// operation's progress: OpStarted at submission, PhaseReached per barrier
// milestone, OpCompleted or OpFailed at the end. Events fire synchronously
// on the simulation loop in deterministic order (log order, then
// subscription order), so a subscriber can drive follow-up ops — the stall
// detector chains fail → evacuate exactly this way — without perturbing
// replay determinism.

import (
	"stopwatch/internal/sim"
)

// EventKind discriminates operation events.
type EventKind int

// Event kinds.
const (
	OpStarted EventKind = iota + 1
	PhaseReached
	OpCompleted
	OpFailed
)

// Event is one observation of an operation's progress.
type Event struct {
	Kind EventKind
	// Seq identifies the operation in the log (Outcome.Seq); Parent is its
	// submitting op's Seq (0 for top-level ops) — scenario auditors key
	// their one post-outcome audit off Parent == 0.
	Seq    uint64
	Parent uint64
	Op     Op
	// Phase is set for PhaseReached events.
	Phase Phase
	At    sim.Time
	// Err is set for OpFailed events.
	Err error
}

// watcher is one Watch subscription; fn is nil once cancelled.
type watcher struct {
	fn func(Event)
}

// Watch subscribes fn to the operation event stream. Events are delivered
// synchronously, in subscription order, as ops progress. The returned
// cancel removes the subscription; cancelling twice is a no-op.
func (cp *ControlPlane) Watch(fn func(Event)) (cancel func()) {
	w := &watcher{fn: fn}
	cp.watchers = append(cp.watchers, w)
	return func() { w.fn = nil }
}

// emit delivers an event to every live subscriber.
func (cp *ControlPlane) emit(ev Event) {
	for _, w := range cp.watchers {
		if w.fn != nil {
			w.fn(ev)
		}
	}
}
