package core

import (
	"fmt"
	"strings"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
)

// TestInstrumentMetricsDataPlane drives one end-to-end download through an
// instrumented cluster and checks every data-plane family moved: fabric
// per-kind counters, the proposal-latency histogram (wired to replicas
// created after instrumentation), per-host disk gauges, and egress
// occupancy.
func TestInstrumentMetricsDataPlane(t *testing.T) {
	c := mustCluster(t, DefaultClusterConfig())
	reg := metrics.NewRegistry()
	c.InstrumentMetrics(reg)
	if _, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var lat []sim.Time
	dl := apps.NewDownloader(cl)
	c.Loop().At(50*sim.Millisecond, "fetch", func() {
		if err := dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 100<<10, func(l sim.Time) { lat = append(lat, l) }); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(lat) != 1 {
		t.Fatalf("download did not complete under instrumentation")
	}

	find := func(name, label string) metrics.Sample {
		t.Helper()
		samples, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("family %q not registered", name)
		}
		for _, s := range samples {
			if s.LabelValue == label {
				return s
			}
		}
		t.Fatalf("family %q has no sample %q (have %v)", name, label, samples)
		return metrics.Sample{}
	}

	// Every replica unicasts its proposals to its peers (swprop) and
	// tunnels outputs to the egress: both kinds must move, and
	// proposal-latency observations must be plentiful.
	if s := find("stopwatch_net_packets_delivered_total", "swprop"); s.Counter == 0 {
		t.Fatal("no proposal deliveries counted")
	}
	if s := find("stopwatch_net_packets_delivered_total", "egress:tunnel"); s.Counter == 0 {
		t.Fatal("no egress tunnel deliveries counted")
	}
	lat2 := find("stopwatch_vmm_proposal_latency_ns", "")
	if lat2.Count == 0 || lat2.Sum <= 0 {
		t.Fatalf("proposal latency histogram empty: %+v", lat2)
	}

	// The file server reads from disk on every request: host gauges for the
	// serving triangle must show accumulated busy time.
	var busy float64
	for _, h := range []int{0, 1, 2} {
		busy += find("stopwatch_host_disk_busy_ns", c.Host(h).Name()).Gauge
	}
	if busy <= 0 {
		t.Fatal("no disk busy time accumulated on the serving hosts")
	}

	// After the run settles the egress has no stuck groups.
	if s := find("stopwatch_egress_stuck_groups", ""); s.Gauge != 0 {
		t.Fatalf("stuck egress groups: %v", s.Gauge)
	}
	if s := find("stopwatch_guest_divergences", ""); s.Gauge != 0 {
		t.Fatalf("divergences: %v", s.Gauge)
	}

	// The page renders with every family present.
	prom := reg.Prom()
	for _, fam := range []string{
		"stopwatch_net_packets_delivered_total",
		"stopwatch_net_packets_dropped_total",
		"stopwatch_vmm_proposal_latency_ns_bucket",
		"stopwatch_host_disk_backlog_ns",
		"stopwatch_host_io_inflight",
		"stopwatch_egress_stuck_groups",
	} {
		if !strings.Contains(prom, fam) {
			t.Fatalf("prom page missing %s:\n%s", fam, prom)
		}
	}
}

// TestInstrumentationDoesNotPerturbRun pins the observability plane's core
// guarantee at the data-plane level: the same seed and workload produce an
// identical journal and packet economy with and without instrumentation.
func TestInstrumentationDoesNotPerturbRun(t *testing.T) {
	run := func(instrument bool) (uint64, int) {
		cfg := DefaultClusterConfig()
		cfg.Seed = 42
		c := mustCluster(t, cfg)
		if instrument {
			c.InstrumentMetrics(metrics.NewRegistry())
		}
		if _, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
			t.Fatal(err)
		}
		cl, err := c.NewClient("laptop")
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		dl := apps.NewDownloader(cl)
		c.Loop().At(50*sim.Millisecond, "fetch", func() {
			if err := dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 64<<10, func(sim.Time) {}); err != nil {
				t.Error(err)
			}
		})
		if err := c.Run(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return c.Net().Stats().Delivered, int(c.Egress().Forwarded())
	}
	d1, f1 := run(false)
	d2, f2 := run(true)
	if d1 != d2 || f1 != f2 {
		t.Fatalf("instrumentation perturbed the run: delivered %d vs %d, forwarded %d vs %d", d1, d2, f1, f2)
	}
}

// TestPerGuestGaugesFollowResidents: the per-guest journal families list
// who is resident at the snapshot, so a fleet that has admitted and evicted
// hundreds of tenants renders as many samples as it has guests now.
func TestPerGuestGaugesFollowResidents(t *testing.T) {
	c := mustCluster(t, DefaultClusterConfig())
	reg := metrics.NewRegistry()
	c.InstrumentMetrics(reg)
	factory := fileServerFactory(t, apps.DefaultFileServerConfig())
	if _, err := c.Deploy("stays", []int{0, 1, 2}, factory); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		if _, err := c.Deploy(id, []int{0, 1, 2}, factory); err != nil {
			t.Fatal(err)
		}
		if err := c.Undeploy(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Deploy("tenant-7", []int{0, 1, 2}, factory); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"stopwatch_guest_journal_records",
		"stopwatch_guest_journal_bytes",
		"stopwatch_guest_checkpoint_age_instr",
	} {
		samples, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("family %q not registered", name)
		}
		if len(samples) != 2 || samples[0].LabelValue != "stays" || samples[1].LabelValue != "tenant-7" {
			t.Errorf("%s: samples %+v, want the residents stays and tenant-7", name, samples)
		}
	}
}
