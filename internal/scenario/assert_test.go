package scenario

import (
	"reflect"
	"strings"
	"testing"

	"stopwatch"
)

// TestEveryStatsCounterIsAssertable: each int field of ControlPlaneStats is
// in the stats assertion's vocabulary and the evaluator reads that field, not
// a neighbour. The seventeen names the corpus and the README may already use
// are spelled out, so a renamed field cannot silently rename its key.
func TestEveryStatsCounterIsAssertable(t *testing.T) {
	var st stopwatch.ControlPlaneStats
	v := reflect.ValueOf(&st).Elem()
	ints := 0
	for i := range v.NumField() {
		if v.Field(i).Kind() == reflect.Int {
			v.Field(i).SetInt(int64(100 + i))
			ints++
		}
	}
	if len(statsFields) != ints {
		t.Fatalf("vocabulary has %d names, ControlPlaneStats %d int fields", len(statsFields), ints)
	}
	for name, i := range statsFields {
		if got := statsField(st, name); got != 100+i {
			t.Errorf("stats field %q reads %d, want field %d (%s)", name, got, i, v.Type().Field(i).Name)
		}
	}
	for name, want := range map[string]int{
		"admitted": st.Admitted, "rejected": st.Rejected, "evicted": st.Evicted,
		"replacements": st.Replacements, "replacement_failures": st.ReplacementFailures,
		"drain_retries": st.DrainRetries, "host_drains": st.HostDrains,
		"evacuations": st.Evacuations, "evacuation_failures": st.EvacuationFailures,
		"host_failures": st.HostFailures, "crash_evacuations": st.CrashEvacuations,
		"crash_evacuation_failures": st.CrashEvacuationFailures,
		"migrations":                st.Migrations, "migration_failures": st.MigrationFailures,
		"migrations_planned": st.MigrationsPlanned,
		"reconcile_rounds":   st.ReconcileRounds, "reconcile_repairs": st.ReconcileRepairs,
		"detector_suspicions": st.DetectorSuspicions, "detector_false_alarms": st.DetectorFalseAlarms,
	} {
		if _, ok := statsFields[name]; !ok || statsField(st, name) != want {
			t.Errorf("stats field %q: in vocabulary %v, reads %d, want %d", name, ok, statsField(st, name), want)
		}
	}
	for _, op := range []string{"admit", "evict", "replace", "drain", "undrain", "fail", "evacuate", "repair", "migrate"} {
		if !knownOp(op) {
			t.Errorf("oplog assertion does not know op %q", op)
		}
	}
	if knownOp("?") || knownOp("") || knownOp("vibes") {
		t.Error("oplog assertion accepts a name that is no op kind")
	}
}

// TestMetricAssertionNeedsItsFamily: a bare max is met by a family that has
// no sample for the label (nothing exceeded it), but not by a name the
// registry does not have — a misspelled family would pass for ever.
func TestMetricAssertionNeedsItsFamily(t *testing.T) {
	sc := mustParse(t, tiny+`  - check: metric
    name: stopwatch_egress_stuck_grups
    max: 2
  - check: metric
    name: stopwatch_egress_stuck_groups
    max: 2
  - check: metric
    name: stopwatch_net_packets_delivered_total
    label: no-such-kind
    max: 0
`)
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "stopwatch_egress_stuck_grups: no such metric family") {
		t.Fatalf("failures = %q, want only the misspelled family", res.Failures)
	}
}

// TestEveryAssertionKindIsEvaluated: for each check the decoder knows, a false
// assertion of that kind fails the run by its own evaluator, under
// assertions: at the declared seed, and under invariants: at a seed the file
// does not declare. A kind that is accepted and evaluated by nobody passes
// for ever.
func TestEveryAssertionKindIsEvaluated(t *testing.T) {
	falseOf := map[string]struct{ yaml, want string }{
		"lockstep":   {"guest: g-1", "lockstep assertion: guest g-1 not deployed"},
		"coresident": {"guests: [g-0, g-2]\n    min_shared: 3", "coresident assertion"},
		"stats":      {"field: evicted\n    min: 99", "stats assertion evicted"},
		"oplog":      {"op: evict\n    not_fired: true", "oplog assertion evict"},
		"metric":     {"name: stopwatch_net_packets_delivered_total\n    max: 0", "metric assertion"},
		"journal":    {"guest: all", "journal assertion all"},
	}
	for kind := range assertKeys {
		c, ok := falseOf[kind]
		if !ok {
			t.Errorf("check %q has no false assertion here: add one", kind)
			continue
		}
		entry := "  - check: " + kind + "\n"
		if c.yaml != "" {
			entry += "    " + c.yaml + "\n"
		}
		for _, list := range []struct {
			src  string
			seed uint64
		}{
			{tiny + entry, 1},
			{tiny + "invariants:\n" + entry, 2},
		} {
			var got string
			if res, err := Run(mustParse(t, list.src), Options{Seed: list.seed}); err != nil {
				got = err.Error()
			} else {
				got = strings.Join(res.Failures, "\n")
			}
			if !strings.Contains(got, c.want) {
				t.Errorf("a false %s check at seed %d: run reported %q, want %q", kind, list.seed, got, c.want)
			}
		}
	}
}
