package controlplane

// The append-only operations log. Every Apply opens one Outcome here at
// submission; asynchronous ops fill it in as their barriers advance. The
// log is the single source of truth for decision accounting: Stats is a
// pure fold over it (FoldStats) — there are no hand-kept counters anywhere
// in the control plane — and FormatLog renders it deterministically, so
// two runs with the same seed can be compared byte for byte.

import (
	"errors"
	"strings"

	"stopwatch/internal/sim"
)

// opLog is the control plane's append-only operation record.
type opLog struct {
	entries []*Outcome
}

// open appends a fresh Outcome for op, stamped with the submission time and
// the pool's pre-op aggregate state.
func (l *opLog) open(op Op, parent uint64, at sim.Time, guests int, util float64) *Outcome {
	oc := &Outcome{
		Seq:       uint64(len(l.entries)) + 1,
		Op:        op,
		Parent:    parent,
		Submitted: at,
		Pool:      PoolDelta{GuestsBefore: guests, UtilBefore: util},
	}
	oc.Phases = oc.phasesBuf[:0]
	l.entries = append(l.entries, oc)
	return oc
}

// Log returns the operations log in submission order. Entries are the live
// records — an asynchronous op's entry keeps filling in until Done() — and
// the slice is a fresh copy safe to hold.
func (cp *ControlPlane) Log() []*Outcome {
	out := make([]*Outcome, len(cp.log.entries))
	copy(out, cp.log.entries)
	return out
}

// Outcome returns the log entry with sequence number seq (from 1) — how an
// event-stream subscriber resolves an Event to its full record.
func (cp *ControlPlane) Outcome(seq uint64) (*Outcome, bool) {
	if seq < 1 || seq > uint64(len(cp.log.entries)) {
		return nil, false
	}
	return cp.log.entries[seq-1], true
}

// Stats aggregates control-plane decisions. It is derived: a pure fold over
// the operations log, never incremented by hand.
type Stats struct {
	// Admitted and Rejected count AdmitOp outcomes.
	Admitted, Rejected int
	// Evicted counts completed EvictOps.
	Evicted int
	// Replacements counts completed ReplaceOps; ReplacementFailures counts
	// ones whose barrier ran but failed. Evacuation moves are replacements
	// too and count here as well.
	Replacements, ReplacementFailures int
	// DrainRetries counts quiescence re-checks beyond the first, summed
	// over every replacement barrier.
	DrainRetries int
	// HostDrains counts DrainOps that pulled capacity; Evacuations and
	// EvacuationFailures count the per-resident moves they submitted.
	HostDrains, Evacuations, EvacuationFailures int
	// HostFailures counts FailOps that marked a machine crashed;
	// CrashEvacuations and CrashEvacuationFailures count the per-resident
	// moves EvacuateOps submitted off them.
	HostFailures, CrashEvacuations, CrashEvacuationFailures int
	// Migrations counts completed MigrateOps; MigrationFailures counts ones
	// whose barrier ran but failed. MigrationsPlanned counts blocked
	// Admit/Replace ops the planner produced a one-move plan for (PhasePlan
	// reached), whether or not the plan ultimately unblocked them.
	Migrations, MigrationFailures, MigrationsPlanned int
	// ReconcileRounds and ReconcileRepairs sum the FailOps' pre-commit
	// survivor exchanges: guest groups that exchanged, and sequences
	// repaired at importers.
	ReconcileRounds, ReconcileRepairs int
	// DetectorSuspicions counts FailOps the stall detector submitted;
	// DetectorFalseAlarms counts the ones rejected because the machine's
	// VMM was alive.
	DetectorSuspicions, DetectorFalseAlarms int
}

// Stats folds the operations log into decision counters (FoldStats).
func (cp *ControlPlane) Stats() Stats { return FoldStats(cp.log.entries) }

// FoldStats derives Stats from an operations log. In-flight ops contribute
// what has already happened (a started drain counts, its unfinished moves
// do not), so a mid-run fold matches what hand-kept counters would have
// read at the same instant.
func FoldStats(entries []*Outcome) Stats {
	var st Stats
	for _, oc := range entries {
		accumulate(&st, oc)
	}
	return st
}

// accumulate folds one outcome's current contribution into st. For a done
// outcome the contribution is final (nothing mutates a finished record);
// for an in-flight one it is the partial view — retries so far, a drain
// that has pulled capacity.
func accumulate(st *Stats, oc *Outcome) {
	if _, planned := oc.PhaseAt(PhasePlan); planned {
		st.MigrationsPlanned++
	}
	switch op := oc.Op.(type) {
	case AdmitOp:
		switch {
		case !oc.done:
		case oc.Err == nil:
			st.Admitted++
		case errors.Is(oc.Err, ErrRejected):
			st.Rejected++
		}
	case EvictOp:
		if oc.done && oc.Err == nil {
			st.Evicted++
		}
	case ReplaceOp:
		st.DrainRetries += oc.QuiesceRetries
		if !oc.done {
			break
		}
		if oc.Err == nil {
			st.Replacements++
			switch op.cause {
			case causeDrain:
				st.Evacuations++
			case causeCrash:
				st.CrashEvacuations++
			}
			break
		}
		// A validation rejection never ran the barrier and is not a
		// replacement failure; a rejected evacuation move still failed
		// the evacuation.
		if len(oc.Phases) > 0 {
			st.ReplacementFailures++
		}
		switch op.cause {
		case causeDrain:
			st.EvacuationFailures++
		case causeCrash:
			st.CrashEvacuationFailures++
		}
	case MigrateOp:
		st.DrainRetries += oc.QuiesceRetries
		if !oc.done {
			break
		}
		if oc.Err == nil {
			st.Migrations++
			break
		}
		if len(oc.Phases) > 0 {
			st.MigrationFailures++
		}
	case DrainOp:
		if len(oc.Phases) > 0 {
			st.HostDrains++
		}
	case FailOp:
		if len(oc.Phases) > 0 {
			st.HostFailures++
		}
		st.ReconcileRounds += oc.ReconcileRounds
		st.ReconcileRepairs += oc.ReconcileRepairs
		if op.Detected {
			st.DetectorSuspicions++
			if oc.Rejected() {
				st.DetectorFalseAlarms++
			}
		}
	}
}

// FormatLog renders an operations log deterministically, one line per
// outcome in submission order — the byte-comparable replay artifact.
func FormatLog(entries []*Outcome) string {
	var b strings.Builder
	for _, oc := range entries {
		b.WriteString(oc.String())
		b.WriteByte('\n')
	}
	return b.String()
}
