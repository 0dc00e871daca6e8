// End-of-run evaluation of invariants and assertions: lockstep,
// coresidency, FoldOpStats counters, op-log expectations (counts, detection
// latency), metric predicates over the registry snapshot, and journal
// checkpoint floors. Every check reads the same public surfaces external
// tooling would: the op log, the pool, the metrics registry and the guest
// audit API.
package scenario

import (
	"fmt"
	"reflect"
	"slices"

	"stopwatch"
)

// assertAll evaluates the invariants, and at a declared seed the assertions
// too, against the finished run, folding defects into r.failures.
func (r *runner) assertAll(log []*stopwatch.Outcome, res *Result) {
	checks := r.sc.Invariants
	if slices.Contains(r.sc.Seeds, r.seed) {
		checks = slices.Concat(checks, r.sc.Assertions)
	}
	for _, a := range checks {
		switch a.Check {
		case "lockstep":
			r.assertLockstep(a)
		case "coresident":
			r.assertCoresident(a)
		case "stats":
			r.assertBound(fmt.Sprintf("stats assertion %s", a.Field), float64(statsField(res.Stats, a.Field)), a.Min, a.Max)
		case "oplog":
			r.assertOplog(a, log)
		case "metric":
			r.assertMetric(a)
		case "journal":
			r.assertJournal(a)
		}
	}
}

// assertBound checks min <= v <= max (whichever bounds are present).
func (r *runner) assertBound(what string, v float64, min, max *float64) {
	if min != nil && v < *min {
		r.failf("%s: %v below min %v", what, v, *min)
	}
	if max != nil && v > *max {
		r.failf("%s: %v above max %v", what, v, *max)
	}
}

// assertLockstep audits one instance or every resident. Strict requires
// the exact digest+count check on fully-live guests; the default
// tolerates a degraded guest's frozen replicas.
func (r *runner) assertLockstep(a Assertion) {
	ids := []string{a.Guest}
	if a.Guest == "" || a.Guest == "all" {
		ids = r.cp.Pool().IDs()
	}
	for _, id := range ids {
		g, ok := r.c.Guest(id)
		if !ok {
			r.failf("lockstep assertion: guest %s not deployed", id)
			continue
		}
		degraded, err := auditLockstep(g, a.Strict)
		if err != nil {
			r.failf("lockstep assertion %s: %v", id, err)
		}
		if degraded && a.Strict {
			r.failf("lockstep assertion %s: degraded (frozen replica) under strict", id)
		}
	}
}

// assertCoresident checks the two guests' triangles share at least
// MinShared hosts (default 1) — the paper's attacker/victim coresidency
// condition.
func (r *runner) assertCoresident(a Assertion) {
	t0, ok0 := r.cp.Pool().Triangle(a.Guests[0])
	t1, ok1 := r.cp.Pool().Triangle(a.Guests[1])
	if !ok0 || !ok1 {
		r.failf("coresident assertion: %s placed=%v, %s placed=%v", a.Guests[0], ok0, a.Guests[1], ok1)
		return
	}
	shared := 0
	for _, h0 := range t0 {
		for _, h1 := range t1 {
			if h0 == h1 {
				shared++
			}
		}
	}
	want := a.MinShared
	if want == 0 {
		want = 1
	}
	if shared < want {
		r.failf("coresident assertion: %s %v and %s %v share %d hosts, want >= %d",
			a.Guests[0], t0, a.Guests[1], t1, shared, want)
	}
}

// statsField reads the counter a stats assertion names. The validator has
// closed the vocabulary: an unknown name cannot reach a run.
func statsField(st stopwatch.ControlPlaneStats, field string) int {
	return int(reflect.ValueOf(st).Field(statsFields[field]).Int())
}

// assertOplog counts log entries of the given kind (optionally filtered
// by the FailOp Detected flag) and bounds the count; within_ms
// additionally bounds each detected failure's submission latency against
// the scripted kill instant on its machine.
func (r *runner) assertOplog(a Assertion, log []*stopwatch.Outcome) {
	count := 0
	for _, oc := range log {
		if oc.Op.Kind().String() != a.Op {
			continue
		}
		if a.Detected != nil {
			fop, ok := oc.Op.(stopwatch.FailOp)
			if !ok || fop.Detected != *a.Detected {
				continue
			}
		}
		count++
		if a.WithinMS > 0 {
			fop := oc.Op.(stopwatch.FailOp) // within_ms implies op: fail, detected: true
			kill, ok := r.lastKillBefore(fop.Machine, oc.Submitted)
			if !ok {
				r.failf("oplog assertion: detected FailOp on machine %d with no scripted kill", fop.Machine)
				continue
			}
			if lat := oc.Submitted - kill; lat > stopwatch.Millis(float64(a.WithinMS)) {
				r.failf("oplog assertion: machine %d failure detected %.1fms after the kill, want <= %dms",
					fop.Machine, float64(lat)/1e6, a.WithinMS)
			}
		}
	}
	if a.NotFired {
		if count > 0 {
			r.failf("oplog assertion %s: fired %d times, want not fired at all", a.Op, count)
		}
		return
	}
	r.assertBound(fmt.Sprintf("oplog assertion %s", a.Op), float64(count), a.Min, a.Max)
}

// lastKillBefore returns the latest scripted kill on the machine at or
// before t.
func (r *runner) lastKillBefore(m int, t stopwatch.Time) (stopwatch.Time, bool) {
	var best stopwatch.Time
	found := false
	for _, kt := range r.killTimes[m] {
		if kt <= t && (!found || kt > best) {
			best, found = kt, true
		}
	}
	return best, found
}

// assertMetric bounds one sample of the end-of-run registry snapshot:
// counters and gauges by value, histograms by observation count.
func (r *runner) assertMetric(a Assertion) {
	for _, fam := range r.reg.Snapshot() {
		if fam.Name != a.Name {
			continue
		}
		for _, s := range fam.Samples {
			if a.Label != "" && s.LabelValue != a.Label {
				continue
			}
			var v float64
			switch fam.Kind {
			case "histogram":
				var n uint64
				for _, c := range s.Counts {
					n += c
				}
				v = float64(n)
			case "gauge":
				v = s.Gauge
			default:
				v = float64(s.Counter)
			}
			r.assertBound(fmt.Sprintf("metric assertion %s{%s}", a.Name, s.LabelValue), v, a.Min, a.Max)
			return
		}
		// An absent sample of a family the registry has still satisfies a
		// pure max bound (nothing exceeded it); a min bound needs the sample
		// to exist.
		if a.Min != nil {
			r.failf("metric assertion %s{%s}: no such sample", a.Name, a.Label)
		}
		return
	}
	// A name the registry does not have bounds nothing: a misspelled family
	// must not pass its max for ever.
	r.failf("metric assertion %s: no such metric family", a.Name)
}

// assertJournal floors the cumulative checkpoint count of one instance or
// of the whole run (residents plus evicted guests).
func (r *runner) assertJournal(a Assertion) {
	total := 0
	if a.Guest == "all" {
		for _, id := range r.cp.Pool().IDs() {
			if g, ok := r.c.Guest(id); ok {
				total += g.JournalStats().Checkpoints
			}
		}
		for _, n := range r.evictedCkpts {
			total += n
		}
	} else {
		if g, ok := r.c.Guest(a.Guest); ok {
			total = g.JournalStats().Checkpoints
		} else if n, ok := r.evictedCkpts[a.Guest]; ok {
			total = n
		} else {
			r.failf("journal assertion: guest %s never deployed", a.Guest)
			return
		}
	}
	if int64(total) < a.MinCheckpoints {
		r.failf("journal assertion %s: %d checkpoints, want >= %d", a.Guest, total, a.MinCheckpoints)
	}
}
