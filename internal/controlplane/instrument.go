package controlplane

// Control-plane metrics: every family is a fold, at snapshot time, over
// the operations log the digests pin — the scalar counters are FoldStats
// fields, the per-kind counters and phase latencies read the outcomes
// directly. Nothing subscribes to the event stream and nothing is counted
// by hand, so enabling metrics cannot perturb a run: the op-log digest of
// an instrumented run is byte-identical to the uninstrumented one (every
// fleet workload of bench/ compares a bare run's digest against an
// instrumented one, and every scenario run is instrumented and holds its
// pins).

import (
	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
)

// phaseLatencyBuckets is the fixed ladder for barrier milestone-to-
// milestone latency: 10µs to ~2.6s, exponential. The interesting phases
// (pause→quiesce under a drain window of 50ms, quiesce→rehome in one
// instant) all land inside it.
var phaseLatencyBuckets = metrics.ExpBuckets(int64(10*sim.Microsecond), 4, 10)

// InstrumentMetrics registers the control-plane metric families on reg:
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
// Each family folds the log when a snapshot is taken, so it does not
// matter when reg is attached: it reads every operation since the control
// plane was built.
func (cp *ControlPlane) InstrumentMetrics(reg *metrics.Registry) {
	byKind := func(name, help string, counts func(oc *Outcome) bool) {
		reg.NewCounterSetFunc(name, help, "kind", func(emit func(string, uint64)) {
			n := map[string]uint64{}
			for _, oc := range cp.log.entries {
				if counts(oc) {
					n[opKind(oc.Op).String()]++
				}
			}
			for kind, v := range n {
				emit(kind, v)
			}
		})
	}
	byKind("stopwatch_cp_ops_started_total",
		"operations submitted through Apply, by kind", func(*Outcome) bool { return true })
	byKind("stopwatch_cp_ops_completed_total",
		"operations completed successfully, by kind", func(oc *Outcome) bool { return oc.done && oc.Err == nil })
	byKind("stopwatch_cp_ops_failed_total",
		"operations completed with an error, by kind", func(oc *Outcome) bool { return oc.done && oc.Err != nil })
	byKind("stopwatch_cp_ops_rejected_total",
		"validation rejections (no barrier ran, no state changed), by kind", (*Outcome).Rejected)
	reg.NewHistogramSetFunc("stopwatch_cp_phase_latency_ns",
		"latency from an op's previous milestone (or submission) to reaching this phase",
		"phase", func(emit func(string, metrics.Histogram)) {
			byPhase := map[Phase]metrics.Histogram{}
			for _, oc := range cp.log.entries {
				prev := oc.Submitted
				for _, pt := range oc.Phases {
					h, ok := byPhase[pt.Phase]
					if !ok {
						h = metrics.NewHistogram(phaseLatencyBuckets)
					}
					h.Observe(int64(pt.At - prev))
					byPhase[pt.Phase] = h
					prev = pt.At
				}
			}
			for p, h := range byPhase {
				emit(string(p), h)
			}
		})
	stat := func(name, help string, read func(st Stats) int) {
		reg.NewCounterFunc(name, help, func() uint64 { return uint64(read(cp.Stats())) })
	}
	stat("stopwatch_cp_quiesce_retries_total",
		"replacement-barrier quiescence re-checks beyond the first", func(st Stats) int { return st.DrainRetries })
	stat("stopwatch_cp_detector_suspicions_total",
		"stall-detector machine suspicions (detected FailOps submitted)", func(st Stats) int { return st.DetectorSuspicions })
	stat("stopwatch_cp_detector_false_alarms_total",
		"detector suspicions rejected because the machine's VMM was alive", func(st Stats) int { return st.DetectorFalseAlarms })
	stat("stopwatch_cp_reconcile_rounds_total",
		"pre-commit survivor reconcile rounds run by FailOps (one per resident guest with a live pair)",
		func(st Stats) int { return st.ReconcileRounds })
	stat("stopwatch_cp_reconcile_repairs_total",
		"sequences repaired at importers during pre-commit reconcile rounds", func(st Stats) int { return st.ReconcileRepairs })
	reg.NewGaugeFunc("stopwatch_cp_residents",
		"resident guests", func() float64 { return float64(cp.pool.Guests()) })
	reg.NewGaugeFunc("stopwatch_cp_utilization",
		"resident replicas over undrained capacity", func() float64 { return cp.pool.Utilization() })
}

// opKind is op's kind; a nil op (which Apply rejects) has kind 0, "?".
func opKind(op Op) OpKind {
	if op == nil {
		return 0
	}
	return op.Kind()
}
