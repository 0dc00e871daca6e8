package controlplane

// Control-plane metrics: a Watch subscriber translating the operation
// event stream into registry series. Everything here is derived from the
// same append-only log the digests pin — instrumentation reads events and
// outcomes, never the pool or cluster directly — so enabling it cannot
// perturb a run: the op-log digest of an instrumented run is byte-
// identical to the uninstrumented one (every fleet workload of bench/
// compares a bare run's digest against an instrumented one, and every
// scenario run is instrumented and holds its pins).

import (
	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
)

// phaseLatencyBuckets is the fixed ladder for barrier milestone-to-
// milestone latency: 10µs to ~2.6s, exponential. The interesting phases
// (pause→quiesce under a drain window of 50ms, quiesce→rehome in one
// instant) all land inside it.
var phaseLatencyBuckets = metrics.ExpBuckets(int64(10*sim.Microsecond), 4, 10)

// InstrumentMetrics subscribes a metrics translator to the operation event
// stream, registering the control-plane metric families on reg:
//
//	stopwatch_cp_ops_started_total{kind}    submissions by op kind
//	stopwatch_cp_ops_completed_total{kind}  successful completions
//	stopwatch_cp_ops_failed_total{kind}     failures (validation rejections included)
//	stopwatch_cp_ops_rejected_total{kind}   the validation-rejection subset
//	stopwatch_cp_phase_latency_ns{phase}    milestone-to-milestone barrier latency
//	stopwatch_cp_quiesce_retries_total      quiescence re-checks beyond the first
//	stopwatch_cp_detector_suspicions_total  detector-submitted FailOps
//	stopwatch_cp_detector_false_alarms_total  rejected detector FailOps (machine alive)
//	stopwatch_cp_reconcile_rounds_total     FailOp survivor exchanges, one per guest group
//	stopwatch_cp_reconcile_repairs_total    sequences those exchanges repaired
//	stopwatch_cp_residents                  resident guests (evaluated at snapshot)
//	stopwatch_cp_utilization                pool utilization (evaluated at snapshot)
//
// The returned cancel unsubscribes the translator (the families stay
// registered; they simply stop moving).
func (cp *ControlPlane) InstrumentMetrics(reg *metrics.Registry) (cancel func()) {
	started := reg.NewCounterVec("stopwatch_cp_ops_started_total",
		"operations submitted through Apply, by kind", "kind")
	completed := reg.NewCounterVec("stopwatch_cp_ops_completed_total",
		"operations completed successfully, by kind", "kind")
	failed := reg.NewCounterVec("stopwatch_cp_ops_failed_total",
		"operations completed with an error, by kind", "kind")
	rejected := reg.NewCounterVec("stopwatch_cp_ops_rejected_total",
		"validation rejections (no barrier ran, no state changed), by kind", "kind")
	phaseLat := reg.NewHistogramVec("stopwatch_cp_phase_latency_ns",
		"latency from an op's previous milestone (or submission) to reaching this phase",
		"phase", phaseLatencyBuckets)
	retries := reg.NewCounter("stopwatch_cp_quiesce_retries_total",
		"replacement-barrier quiescence re-checks beyond the first")
	suspicions := reg.NewCounter("stopwatch_cp_detector_suspicions_total",
		"stall-detector machine suspicions (detected FailOps submitted)")
	falseAlarms := reg.NewCounter("stopwatch_cp_detector_false_alarms_total",
		"detector suspicions rejected because the machine's VMM was alive")
	reconcileRounds := reg.NewCounter("stopwatch_cp_reconcile_rounds_total",
		"pre-commit survivor reconcile rounds run by FailOps (one per resident guest with a live pair)")
	reconcileRepairs := reg.NewCounter("stopwatch_cp_reconcile_repairs_total",
		"sequences repaired at importers during pre-commit reconcile rounds")
	reg.NewGaugeFunc("stopwatch_cp_residents",
		"resident guests", func() float64 { return float64(cp.pool.Guests()) })
	reg.NewGaugeFunc("stopwatch_cp_utilization",
		"resident replicas over undrained capacity", func() float64 { return cp.pool.Utilization() })
	return cp.Watch(func(ev Event) {
		kind := ev.Op.Kind().String()
		switch ev.Kind {
		case OpStarted:
			started.With(kind).Inc()
			if f, ok := ev.Op.(FailOp); ok && f.Detected {
				suspicions.Inc()
			}
		case PhaseReached:
			// The outcome's phase list already carries this milestone (phase()
			// appends before it emits); its predecessor anchors the delta.
			if oc, ok := cp.Outcome(ev.Seq); ok {
				prev := oc.Submitted
				if n := len(oc.Phases); n >= 2 {
					prev = oc.Phases[n-2].At
				}
				phaseLat.With(string(ev.Phase)).Observe(int64(ev.At - prev))
			}
		case OpCompleted, OpFailed:
			oc, ok := cp.Outcome(ev.Seq)
			if ok {
				retries.Add(uint64(oc.QuiesceRetries))
				reconcileRounds.Add(uint64(oc.ReconcileRounds))
				reconcileRepairs.Add(uint64(oc.ReconcileRepairs))
			}
			if ev.Kind == OpCompleted {
				completed.With(kind).Inc()
				return
			}
			failed.With(kind).Inc()
			if ok && oc.Rejected() {
				rejected.With(kind).Inc()
				if f, isFail := ev.Op.(FailOp); isFail && f.Detected {
					falseAlarms.Inc()
				}
			}
		}
	})
}
