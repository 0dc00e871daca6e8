package controlplane

import (
	"fmt"
	"testing"

	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

func counterValue(t *testing.T, reg *metrics.Registry, name, label string) uint64 {
	t.Helper()
	samples, ok := reg.Lookup(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	for _, s := range samples {
		if s.LabelValue == label {
			return s.Counter
		}
	}
	return 0
}

// TestInstrumentMetricsCountsOps: the Watch translator turns the event
// stream into op counters, phase latency observations and retry counts
// that agree with the fold over the same log.
func TestInstrumentMetricsCountsOps(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 2)
	reg := metrics.NewRegistry()
	cp.InstrumentMetrics(reg)

	for i := 0; i < 3; i++ {
		if err := cp.Apply(AdmitOp{GuestID: fmt.Sprintf("g%d", i), Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Apply(EvictOp{GuestID: "g2"}).Err; err != nil {
		t.Fatal(err)
	}
	// A rejected evict (guest not resident) lands in failed+rejected.
	if err := cp.Apply(EvictOp{GuestID: "nope"}).Err; err == nil {
		t.Fatal("expected rejection")
	}
	cp.Cluster().Start()
	if err := cp.Cluster().Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	g, _ := cp.Cluster().Guest("g0")
	dead := g.Replica(0).Host()
	g.Replica(0).Runtime().Stop()
	if oc := cp.Apply(ReplaceOp{GuestID: "g0", DeadHost: dead}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	if err := cp.Cluster().Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}

	st := cp.Stats()
	if got := counterValue(t, reg, "stopwatch_cp_ops_completed_total", "admit"); got != uint64(st.Admitted) {
		t.Fatalf("admit completions = %d, stats say %d", got, st.Admitted)
	}
	if got := counterValue(t, reg, "stopwatch_cp_ops_completed_total", "evict"); got != uint64(st.Evicted) {
		t.Fatalf("evict completions = %d, stats say %d", got, st.Evicted)
	}
	if got := counterValue(t, reg, "stopwatch_cp_ops_started_total", "replace"); got != 1 {
		t.Fatalf("replace starts = %d, want 1", got)
	}
	if got := counterValue(t, reg, "stopwatch_cp_ops_failed_total", "evict"); got != 1 {
		t.Fatalf("evict failures = %d, want 1", got)
	}
	if got := counterValue(t, reg, "stopwatch_cp_ops_rejected_total", "evict"); got != 1 {
		t.Fatalf("evict rejections = %d, want 1", got)
	}
	if got := counterValue(t, reg, "stopwatch_cp_quiesce_retries_total", ""); got != uint64(st.DrainRetries) {
		t.Fatalf("quiesce retries = %d, stats say %d", got, st.DrainRetries)
	}

	// Every replacement-barrier phase observed at least once, with
	// plausible latency (the pause→quiesce hop covers >= one drainWindow).
	samples, ok := reg.Lookup("stopwatch_cp_phase_latency_ns")
	if !ok {
		t.Fatal("phase latency histogram missing")
	}
	byPhase := map[string]metrics.Sample{}
	for _, s := range samples {
		byPhase[s.LabelValue] = s
	}
	for _, p := range []Phase{PhasePlace, PhaseDeploy, PhaseRelease, PhasePause, PhaseQuiesce, PhaseRehome, PhaseReplace, PhaseResume} {
		s, ok := byPhase[string(p)]
		if !ok || s.Count == 0 {
			t.Fatalf("phase %q never observed (%v)", p, byPhase)
		}
	}
	if q := byPhase[string(PhaseQuiesce)]; q.Sum < int64(50*sim.Millisecond) {
		t.Fatalf("pause→quiesce latency %dns, want >= one 50ms drain window", q.Sum)
	}

	// Determinism: an identically seeded, identically driven run renders a
	// byte-identical metrics page.
	reg2 := metrics.NewRegistry()
	cp2 := newTestPlane(t, 9, 3, 2)
	cp2.InstrumentMetrics(reg2)
	for i := 0; i < 3; i++ {
		if err := cp2.Apply(AdmitOp{GuestID: fmt.Sprintf("g%d", i), Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
			t.Fatal(err)
		}
	}
	if err := cp2.Apply(EvictOp{GuestID: "g2"}).Err; err != nil {
		t.Fatal(err)
	}
	if err := cp2.Apply(EvictOp{GuestID: "nope"}).Err; err == nil {
		t.Fatal("expected rejection")
	}
	cp2.Cluster().Start()
	if err := cp2.Cluster().Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	g2, _ := cp2.Cluster().Guest("g0")
	g2.Replica(0).Runtime().Stop()
	if oc := cp2.Apply(ReplaceOp{GuestID: "g0", DeadHost: g2.Replica(0).Host()}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	if err := cp2.Cluster().Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if reg.Prom() != reg2.Prom() {
		t.Fatal("instrumented metrics not deterministic across identical runs")
	}
}

// TestInstrumentMetricsDetectorCounters: detector-submitted FailOps count
// as suspicions; rejected ones (machine alive) as false alarms.
func TestInstrumentMetricsDetectorCounters(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 111)
	c := cp.Cluster()
	reg := metrics.NewRegistry()
	cp.InstrumentMetrics(reg)
	if err := cp.EnableStallDetector(0); err != nil {
		t.Fatal(err)
	}
	ids := []string{"ga", "gb", "gc", "gd", "ge"}
	for _, id := range ids {
		if oc := cp.Apply(AdmitOp{GuestID: id, Factory: lightFactory(vtime.Virtual(4 * sim.Millisecond))}); oc.Err != nil {
			t.Fatal(oc.Err)
		}
	}
	c.Start()
	machine := busiestMachine(cp)
	startPings(t, c, ids, 10*sim.Millisecond, 15*sim.Second)
	c.Loop().At(300*sim.Millisecond, "kill", func() {
		// Data-plane kill only: nobody tells the control plane; the stall
		// detector must notice the silent proposals itself.
		if err := c.FailMachine(machine); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, "stopwatch_cp_detector_suspicions_total", ""); got != 1 {
		t.Fatalf("suspicions = %d, want 1", got)
	}
	if got := counterValue(t, reg, "stopwatch_cp_detector_false_alarms_total", ""); got != 0 {
		t.Fatalf("false alarms = %d, want 0", got)
	}
	if got := counterValue(t, reg, "stopwatch_cp_ops_started_total", "evacuate"); got != 1 {
		t.Fatalf("detector-chained evacuations = %d, want 1", got)
	}
	if got := counterValue(t, reg, "stopwatch_cp_ops_started_total", "fail"); got != 1 {
		t.Fatalf("fail ops started = %d, want 1", got)
	}
}
