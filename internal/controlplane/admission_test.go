package controlplane

import (
	"errors"
	"fmt"
	"testing"

	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// TestLoadAwarePlacementAvoidsSaturatedHost: the acceptance scenario for
// telemetry-driven admission. One host's disk is saturated with Dom0
// background load; with load-aware admission on, new triangles avoid it
// (it is gated — its backlog exceeds the budget), while the default
// control plane happily places on it. The decision is visible in the
// exported gauges.
func TestLoadAwarePlacementAvoidsSaturatedHost(t *testing.T) {
	saturate := func(cp *ControlPlane) {
		// ~1s of disk backlog on host 0: one full 80MB transfer.
		cp.Cluster().Host(0).DiskRequest(80 << 20)
	}

	// Default plane: host 0 is least-loaded like everyone else and wins
	// the index tie-break — the first triangle lands on it.
	cpOff := newTestPlane(t, 9, 3, 4)
	saturate(cpOff)
	ocOff := cpOff.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))})
	triOff, err := ocOff.Triangle, ocOff.Err
	if err != nil {
		t.Fatal(err)
	}
	if !triOff.Contains(0) {
		t.Fatalf("baseline placement avoided host 0 unprompted: %v — scenario can't discriminate", triOff)
	}

	// Load-aware plane, same seed, same saturation: host 0 is gated
	// (backlog ~1s >> budget) and the triangle avoids it.
	cpOn := newTestPlane(t, 9, 3, 4)
	reg := metrics.NewRegistry()
	cpOn.InstrumentMetrics(reg)
	budget := cpOn.EnableLoadAwareAdmission(LoadAwareConfig{FalseAlarmBudget: 10 * sim.Millisecond})
	if budget != 10*sim.Millisecond {
		t.Fatalf("budget = %v", budget)
	}
	if !cpOn.LoadAware() {
		t.Fatal("LoadAware() false after enable")
	}
	saturate(cpOn)
	ocOn := cpOn.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))})
	triOn, err := ocOn.Triangle, ocOn.Err
	if err != nil {
		t.Fatal(err)
	}
	if triOn.Contains(0) {
		t.Fatalf("load-aware placement used the saturated host: %v", triOn)
	}
	if !cpOn.Pool().Gated(0) {
		t.Fatal("saturated host not gated")
	}

	// The gauges export the decision.
	lookupGauge := func(name, label string) float64 {
		t.Helper()
		samples, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("gauge %q missing", name)
		}
		for _, s := range samples {
			if s.LabelValue == label {
				return s.Gauge
			}
		}
		t.Fatalf("gauge %q has no sample %q", name, label)
		return 0
	}
	if got := lookupGauge("stopwatch_cp_gated_hosts", ""); got != 1 {
		t.Fatalf("gated hosts gauge = %v, want 1", got)
	}
	host0 := cpOn.Cluster().Host(0).Name()
	if got := lookupGauge("stopwatch_cp_host_gated", host0); got != 1 {
		t.Fatalf("host 0 gate gauge = %v, want 1", got)
	}
	if got := lookupGauge("stopwatch_cp_host_score", host0); got <= float64(budget) {
		t.Fatalf("host 0 score gauge = %v, want > budget %d", got, budget)
	}

	// Default-off guarantee: a plane with instrumentation but without
	// EnableLoadAwareAdmission places exactly like the historical pool.
	cpPlain := newTestPlane(t, 9, 3, 4)
	cpPlain.InstrumentMetrics(metrics.NewRegistry())
	saturate(cpPlain)
	ocPlain := cpPlain.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))})
	triPlain, err := ocPlain.Triangle, ocPlain.Err
	if err != nil {
		t.Fatal(err)
	}
	if triPlain != triOff {
		t.Fatalf("metrics-only plane changed placement: %v vs %v", triPlain, triOff)
	}
}

// TestLoadAwareScoreOrdersWithoutGating: below the budget the backlog is a
// tie-break, not a veto — equally-replica-loaded hosts are scanned in
// backlog order.
func TestLoadAwareScoreOrdersWithoutGating(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 4)
	cp.EnableLoadAwareAdmission(LoadAwareConfig{FalseAlarmBudget: 10 * sim.Second})
	// ~105ms backlog on host 0: well under the huge budget, but enough to
	// sort it behind the other idle hosts.
	cp.Cluster().Host(0).DiskRequest(8 << 20)
	oc := cp.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))})
	tri, err := oc.Triangle, oc.Err
	if err != nil {
		t.Fatal(err)
	}
	if cp.Pool().Gated(0) {
		t.Fatal("host gated despite backlog below budget")
	}
	if tri.Contains(0) {
		t.Fatalf("score tie-break ignored: %v placed on the loaded host", tri)
	}
}

// TestGatedAdmissionRejectsAndCounts: when gating shrinks the pool below a
// feasible triangle, the admission is rejected and the gated-admission
// counter moves. 3 hosts is the minimum triangle; gating one must reject.
func TestGatedAdmissionRejectsAndCounts(t *testing.T) {
	cp := newTestPlane(t, 3, 3, 4)
	reg := metrics.NewRegistry()
	cp.InstrumentMetrics(reg)
	cp.EnableLoadAwareAdmission(LoadAwareConfig{FalseAlarmBudget: 10 * sim.Millisecond})
	cp.Cluster().Host(0).DiskRequest(80 << 20)
	err := cp.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("admit on a gated 3-host pool: %v, want rejection", err)
	}
	if got := counterValue(t, reg, "stopwatch_cp_admissions_gated_total", ""); got != 1 {
		t.Fatalf("gated admissions counter = %d, want 1", got)
	}
	// The gate is transient: once the backlog drains past the budget the
	// same admission succeeds.
	cp.Cluster().Start()
	if err := cp.Cluster().Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := cp.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatalf("admit after backlog drained: %v", err)
	}
	if cp.Pool().GatedCount() != 0 {
		t.Fatalf("gates not lifted after drain: %d", cp.Pool().GatedCount())
	}
}

// TestLoadAwareDefaultBudget: 0 selects half the stall deadline when a
// detector is armed, else a quarter of the drain window.
func TestLoadAwareDefaultBudget(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 4)
	if got := cp.EnableLoadAwareAdmission(LoadAwareConfig{}); got != cp.cfg.DrainWindow/4 {
		t.Fatalf("no-detector default budget = %v, want DrainWindow/4 = %v", got, cp.cfg.DrainWindow/4)
	}
	cp2 := newTestPlane(t, 9, 3, 4)
	if err := cp2.EnableStallDetector(40 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := cp2.EnableLoadAwareAdmission(LoadAwareConfig{}); got != 20*sim.Millisecond {
		t.Fatalf("detector default budget = %v, want deadline/2 = 20ms", got)
	}
}

// TestRehomeIsLoadAware: a replacement's rehome step also consults the
// telemetry — with every candidate equally replica-loaded, the saturated
// machine is not chosen as the new home.
func TestRehomeIsLoadAware(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 2)
	cp.EnableLoadAwareAdmission(LoadAwareConfig{FalseAlarmBudget: 10 * sim.Millisecond})
	for i := 0; i < 2; i++ {
		if err := cp.Apply(AdmitOp{GuestID: fmt.Sprintf("g%d", i), Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
			t.Fatal(err)
		}
	}
	cp.Cluster().Start()
	if err := cp.Cluster().Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	g, _ := cp.Cluster().Guest("g0")
	dead := g.Replica(0).Host()
	// Saturate one machine outside g0's current triangle so it would
	// otherwise be a fresh-host candidate.
	tri, _ := cp.Pool().Triangle("g0")
	victim := -1
	for m := 0; m < 9; m++ {
		if !tri.Contains(m) {
			victim = m
			break
		}
	}
	cp.Cluster().Host(victim).DiskRequest(800 << 20) // ~10s backlog
	g.Replica(0).Runtime().Stop()
	if oc := cp.Apply(ReplaceOp{GuestID: "g0", DeadHost: dead}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	if err := cp.Cluster().Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	nt, _ := cp.Pool().Triangle("g0")
	if nt.Contains(victim) {
		t.Fatalf("rehome landed on the saturated machine %d: %v", victim, nt)
	}
	st := cp.Stats()
	if st.Replacements != 1 {
		t.Fatalf("replacement did not complete: %+v", st)
	}
}
