package stopwatch

// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding harness and reports the headline
// quantities as custom metrics, so `go test -bench=. -benchmem` reproduces
// the whole evaluation. Shapes — who wins, by what factor — are asserted in
// the internal experiment tests; these benches measure and report.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"stopwatch/internal/netsim"
)

// BenchmarkFig1MedianDistribution regenerates Fig. 1(a): the analytic
// median-of-3 distributions for λ=1, λ′=1/2.
func BenchmarkFig1MedianDistribution(b *testing.B) {
	var r *Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunFig1(DefaultFig1Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.KSRaw, "KS-raw")
	b.ReportMetric(r.KSMedian, "KS-median")
	b.ReportMetric(r.KSRaw/r.KSMedian, "KS-contraction")
}

// BenchmarkFig1ObservationsHalf regenerates Fig. 1(b): observations needed,
// λ′ = 1/2.
func BenchmarkFig1ObservationsHalf(b *testing.B) {
	benchFig1Obs(b, 0.5)
}

// BenchmarkFig1ObservationsNear regenerates Fig. 1(c): observations needed,
// λ′ = 10/11.
func BenchmarkFig1ObservationsNear(b *testing.B) {
	benchFig1Obs(b, 10.0/11.0)
}

func benchFig1Obs(b *testing.B, lambdaPrime float64) {
	cfg := DefaultFig1Config()
	cfg.LambdaPrime = lambdaPrime
	var r *Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.Confidences) - 1
	b.ReportMetric(r.ObsWith[last], "obs-withSW@0.99")
	b.ReportMetric(r.ObsWithout[last], "obs-withoutSW@0.99")
	b.ReportMetric(r.ObsWithLRT[last], "obsLRT-withSW@0.99")
}

// BenchmarkFig4DeliveryCDF regenerates Fig. 4(a)/(b): the live StopWatch
// run measuring virtual inter-packet delivery times with and without a
// coresident victim, and the detection effort derived from them.
func BenchmarkFig4DeliveryCDF(b *testing.B) {
	cfg := DefaultFig4Config()
	cfg.Duration = Seconds(10) // trimmed for bench time; cmd/experiments runs 30s
	var r *Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.KSStopWatch, "KS-stopwatch")
	b.ReportMetric(r.KSBaseline, "KS-baseline")
	last := len(r.Confidences) - 1
	b.ReportMetric(r.ObsWith[last], "obs-withSW@0.99")
	b.ReportMetric(r.ObsWithout[last], "obs-withoutSW@0.99")
	b.ReportMetric(float64(r.Divergences), "divergences")
}

// BenchmarkFig5HTTP regenerates the HTTP rows of Fig. 5 (one sub-benchmark
// per file size).
func BenchmarkFig5HTTP(b *testing.B) {
	for _, kb := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			benchFig5(b, kb, ModeTCP)
		})
	}
}

// BenchmarkFig5UDP regenerates the UDP rows of Fig. 5.
func BenchmarkFig5UDP(b *testing.B) {
	for _, kb := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			benchFig5(b, kb, ModeUDP)
		})
	}
}

func benchFig5(b *testing.B, kb int, mode FileServerMode) {
	cfg := DefaultFig5Config()
	cfg.SizesKB = []int{kb}
	cfg.Runs = 2
	var r *Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	p := r.Points[0]
	if mode == ModeTCP {
		b.ReportMetric(p.HTTPBaseline, "baseline-ms")
		b.ReportMetric(p.HTTPStopWatch, "stopwatch-ms")
		b.ReportMetric(p.HTTPRatio, "ratio")
	} else {
		b.ReportMetric(p.UDPBaseline, "baseline-ms")
		b.ReportMetric(p.UDPStopWatch, "stopwatch-ms")
		b.ReportMetric(p.UDPRatio, "ratio")
	}
}

// BenchmarkFig6NFSLatency regenerates Fig. 6(a)/(b): NFS latency per op and
// packets per op across offered rates.
func BenchmarkFig6NFSLatency(b *testing.B) {
	for _, rate := range []float64{25, 100, 400} {
		b.Run(fmt.Sprintf("rate%d", int(rate)), func(b *testing.B) {
			cfg := DefaultFig6Config()
			cfg.Rates = []float64{rate}
			cfg.LoadDuration = Seconds(2)
			var r *Fig6Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunFig6(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			p := r.Points[0]
			b.ReportMetric(p.LatencyBaseline, "baseline-ms")
			b.ReportMetric(p.LatencyStopWatch, "stopwatch-ms")
			b.ReportMetric(p.Ratio, "ratio")
			b.ReportMetric(p.ClientToServerPerOp, "c2s-per-op")
			b.ReportMetric(p.ServerToClientPerOp, "s2c-per-op")
		})
	}
}

// BenchmarkFig7PARSEC regenerates Fig. 7(a)/(b): one sub-benchmark per
// application, reporting runtimes and disk interrupts.
func BenchmarkFig7PARSEC(b *testing.B) {
	for _, prof := range PaperParsecProfiles() {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			cfg := DefaultFig7Config()
			cfg.Profiles = []ParsecProfile{prof}
			var r *Fig7Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunFig7(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			p := r.Points[0]
			b.ReportMetric(p.Baseline, "baseline-ms")
			b.ReportMetric(p.StopWatch, "stopwatch-ms")
			b.ReportMetric(p.Ratio, "ratio")
			b.ReportMetric(float64(p.DiskInterrupts), "disk-interrupts")
		})
	}
}

// BenchmarkFig8NoiseComparison regenerates Fig. 8: StopWatch vs additive
// uniform noise at matched detection resistance.
func BenchmarkFig8NoiseComparison(b *testing.B) {
	var r *Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunFig8(DefaultFig8Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	top := r.Points[len(r.Points)-1]
	b.ReportMetric(top.EDelayStopWatch, "sw-delay@0.99")
	b.ReportMetric(top.EDelayNoise, "noise-delay@0.99")
	b.ReportMetric(top.NoiseBound, "noise-b@0.99")
	b.ReportMetric(top.ObsNeeded, "obs@0.99")
}

// benchPinger is a minimal deterministic guest workload for the lifecycle
// benchmarks: periodic compute+send, no inbound dependencies.
type benchPinger struct{ n int64 }

func (p *benchPinger) Boot(ctx Ctx) { ctx.SetTimer(Virtual(2*Millisecond), "tick") }
func (p *benchPinger) OnTimer(ctx Ctx, tag string) {
	p.n++
	ctx.Compute(200_000)
	ctx.Send("bench-sink", 128, p.n)
	ctx.SetTimer(Virtual(2*Millisecond), "tick")
}
func (p *benchPinger) OnPacket(ctx Ctx, in Payload)   {}
func (p *benchPinger) OnDiskDone(ctx Ctx, d DiskDone) {}
func (p *benchPinger) SnapshotAppend(buf []byte) []byte {
	return binary.AppendVarint(buf, p.n)
}
func (p *benchPinger) RestoreSnapshot(data []byte) error {
	n, k := binary.Varint(data)
	if k <= 0 || k != len(data) {
		return errors.New("benchPinger snapshot: bad varint")
	}
	p.n = n
	return nil
}

var _ Snapshotter = (*benchPinger)(nil)

// BenchmarkChurn measures control-plane guest-lifecycle throughput: each
// iteration admits one guest onto an edge-disjoint triangle (deploying and
// wiring all three replicas), evicting the oldest resident first when the
// pool is full. It records the Admit/Evict hot path — incremental packing
// plus full fabric wiring and teardown.
func BenchmarkChurn(b *testing.B) {
	benchChurnLoop(b, false)
}

// benchChurnLoop is the shared admit/evict loop: bare for BenchmarkChurn
// (the allocs/op baseline the CI gate tracks), fully instrumented for
// BenchmarkMetricsHotPath.
func benchChurnLoop(b *testing.B, instrument bool) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 24
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := NewControlPlane(c, DefaultControlPlaneConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	var reg *MetricsRegistry
	if instrument {
		reg = NewMetricsRegistry()
		cp.InstrumentMetrics(reg)
		c.InstrumentMetrics(reg)
	}
	factory := func() App { return &benchPinger{} }
	var resident []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		err := cp.Apply(AdmitOp{GuestID: id, Factory: factory}).Err
		if errors.Is(err, ErrNoFeasibleHost) {
			if err = cp.Apply(EvictOp{GuestID: resident[0]}).Err; err != nil {
				b.Fatal(err)
			}
			resident = resident[1:]
			err = cp.Apply(AdmitOp{GuestID: id, Factory: factory}).Err
		}
		if err != nil {
			b.Fatal(err)
		}
		resident = append(resident, id)
	}
	b.StopTimer()
	st := cp.Stats()
	b.ReportMetric(float64(st.Admitted), "admitted")
	b.ReportMetric(float64(st.Evicted), "evicted")
	b.ReportMetric(cp.Utilization(), "utilization")
	if instrument {
		if reg.Prom() == "" {
			b.Fatal("instrumented run rendered an empty metrics page")
		}
	}
}

// BenchmarkMetricsHotPath prices the observability plane on the lifecycle
// hot path: the same admit/evict churn as BenchmarkChurn, bare vs with the
// full metrics stack attached (control-plane Watch translator + data-plane
// hooks). The delta between the two sub-benchmarks is the per-operation
// cost of instrumentation; CI records both in the trajectory file.
func BenchmarkMetricsHotPath(b *testing.B) {
	b.Run("bare", func(b *testing.B) { benchChurnLoop(b, false) })
	b.Run("instrumented", func(b *testing.B) { benchChurnLoop(b, true) })
}

// BenchmarkApplyAdmit measures the unified operations API's dispatch
// overhead on the admission hot path: each iteration submits one AdmitOp
// through Apply (op-log append, event emission, placement, full fabric
// wiring), evicting the oldest resident first when the pool is full — the
// same loop as BenchmarkChurn, through the typed surface.
func BenchmarkApplyAdmit(b *testing.B) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 24
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := NewControlPlane(c, DefaultControlPlaneConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	factory := func() App { return &benchPinger{} }
	var resident []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		oc := cp.Apply(AdmitOp{GuestID: id, Factory: factory})
		if errors.Is(oc.Err, ErrNoFeasibleHost) {
			if evicted := cp.Apply(EvictOp{GuestID: resident[0]}); evicted.Err != nil {
				b.Fatal(evicted.Err)
			}
			resident = resident[1:]
			oc = cp.Apply(AdmitOp{GuestID: id, Factory: factory})
		}
		if oc.Err != nil {
			b.Fatal(oc.Err)
		}
		resident = append(resident, id)
	}
	b.StopTimer()
	st := FoldOpStats(cp.Log())
	b.ReportMetric(float64(st.Admitted), "admitted")
	b.ReportMetric(float64(len(cp.Log()))/float64(b.N), "ops-per-iter")
}

// BenchmarkWatchThroughput measures the event stream's fan-out cost: three
// subscribers (the detector pipeline, a scenario auditor and a metrics
// sink are the typical trio) observe every event of an admit/evict churn.
func BenchmarkWatchThroughput(b *testing.B) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 24
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := NewControlPlane(c, DefaultControlPlaneConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	for s := 0; s < 3; s++ {
		cp.Watch(func(OpEvent) { events++ })
	}
	factory := func() App { return &benchPinger{} }
	var resident []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		oc := cp.Apply(AdmitOp{GuestID: id, Factory: factory})
		if errors.Is(oc.Err, ErrNoFeasibleHost) {
			if evicted := cp.Apply(EvictOp{GuestID: resident[0]}); evicted.Err != nil {
				b.Fatal(evicted.Err)
			}
			resident = resident[1:]
			oc = cp.Apply(AdmitOp{GuestID: id, Factory: factory})
		}
		if oc.Err != nil {
			b.Fatal(oc.Err)
		}
		resident = append(resident, id)
	}
	b.StopTimer()
	if events == 0 {
		b.Fatal("watchers saw nothing")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events-per-op")
}

// BenchmarkReplaceReplica measures the full Sec. VII replacement protocol
// on a running cloud: crash a replica mid-run, pause/quiesce the guest's
// ingress, re-home through the pool, reconstruct from the determinism
// journal, and re-sync into strict lockstep. The sub-benchmarks pin the
// checkpointing claim: with a long journal the replayed-records metric
// grows ~10x over the short run, with checkpointing on it stays bounded by
// the checkpoint interval regardless of guest lifetime.
func BenchmarkReplaceReplica(b *testing.B) {
	b.Run("short-journal", func(b *testing.B) { benchReplace(b, Millis(200), 0) })
	b.Run("long-journal", func(b *testing.B) { benchReplace(b, Seconds(2), 0) })
	b.Run("long-checkpointed", func(b *testing.B) { benchReplace(b, Seconds(2), 4_000_000) })
}

// benchPingInto streams inbound pings at the guest every 2ms until the
// given time, so the determinism journal holds resolved delivery records —
// the thing replacement replays and checkpointing truncates.
func benchPingInto(c *Cluster, id string, until Time) {
	_ = c.Net().Attach(&netsim.FuncNode{Addr: "bench-src", Fn: func(*netsim.Packet) {}})
	var ping func()
	ping = func() {
		if c.Loop().Now() >= until {
			return
		}
		c.Net().Send(&netsim.Packet{Src: "bench-src", Dst: GuestAddr(id), Size: 128, Kind: "ping"})
		c.Loop().After(2*Millisecond, "bench:ping", ping)
	}
	c.Loop().After(2*Millisecond, "bench:ping", ping)
}

func benchReplace(b *testing.B, warmup Time, ckptInstr int64) {
	var replayed, restored int64
	for i := 0; i < b.N; i++ {
		// Cluster construction, admission and warm-up are setup, not the
		// protocol under measurement: keep them off the timer.
		b.StopTimer()
		cfg := DefaultClusterConfig()
		cfg.Seed = uint64(i + 1)
		cfg.Hosts = 5
		cfg.VMM.CheckpointInstr = ckptInstr
		c, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := NewControlPlane(c, DefaultControlPlaneConfig(3))
		if err != nil {
			b.Fatal(err)
		}
		oc := cp.Apply(AdmitOp{GuestID: "web", Factory: func() App { return &benchPinger{} }})
		g, tri, err := oc.Guest, oc.Triangle, oc.Err
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		benchPingInto(c, "web", warmup)
		if err := c.Run(warmup); err != nil {
			b.Fatal(err)
		}
		slot, _ := g.SlotOnHost(tri[0])
		g.Replica(slot).Runtime().Stop()
		done := false
		b.StartTimer()
		if oc := cp.Apply(ReplaceOp{GuestID: "web", DeadHost: tri[0], Done: func(oc *Outcome) {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
			done = true
		}}); oc.Rejected() {
			b.Fatal(oc.Err)
		}
		for until := warmup + Millis(50); !done && until < warmup+Seconds(10); until += Millis(50) {
			if err := c.Run(until); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if !done {
			b.Fatal("replacement never completed")
		}
		if err := g.CheckLockstepPrefix(); err != nil {
			b.Fatal(err)
		}
		st := g.Replica(slot).Runtime().Stats()
		replayed += int64(st.ReplayedRecords)
		restored += st.RestoredInstr
		if ckptInstr > 0 && st.RestoredInstr == 0 {
			b.Fatal("checkpointing on, yet replacement replayed from boot")
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed-records")
	b.ReportMetric(float64(restored)/float64(b.N), "restored-instr")
}

// BenchmarkCheckpoint prices periodic checkpointing on a running guest: the
// same cloud and workload simulated for one virtual second, with capture off
// vs on at two intervals. The timer delta between the sub-benchmarks is the
// steady-state checkpoint cost (capture is pooled, so -benchmem should show
// no allocation growth between off and on).
func BenchmarkCheckpoint(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchCheckpoint(b, 0) })
	b.Run("interval-1M", func(b *testing.B) { benchCheckpoint(b, 1_000_000) })
	b.Run("interval-4M", func(b *testing.B) { benchCheckpoint(b, 4_000_000) })
}

func benchCheckpoint(b *testing.B, every int64) {
	var ckpts, truncated int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultClusterConfig()
		cfg.Seed = uint64(i + 1)
		cfg.VMM.CheckpointInstr = every
		c, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		g, err := c.Deploy("web", []int{0, 1, 2}, func() App { return &benchPinger{} })
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		benchPingInto(c, "web", Seconds(1))
		b.StartTimer()
		if err := c.Run(Seconds(1)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		js := g.JournalStats()
		if every > 0 && js.Checkpoints == 0 {
			b.Fatal("no checkpoints taken")
		}
		ckpts += int64(js.Checkpoints)
		truncated += int64(js.TruncatedRecords)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(ckpts)/float64(b.N), "checkpoints")
	b.ReportMetric(float64(truncated)/float64(b.N), "truncated-records")
}

// BenchmarkEvacuateFailedHost measures the whole crashed-machine recovery
// path on a running multi-tenant cloud: kill a machine's VMM outright,
// reconfigure every resident guest onto its live quorum (unwedging the
// delivery medians), evacuate the residents through the replacement
// barrier, and repair the machine.
func BenchmarkEvacuateFailedHost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultClusterConfig()
		cfg.Seed = uint64(i + 1)
		cfg.Hosts = 9
		c, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := NewControlPlane(c, DefaultControlPlaneConfig(3))
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range []string{"ga", "gb", "gc", "gd", "ge"} {
			if err := cp.Apply(AdmitOp{GuestID: id, Factory: func() App { return &benchPinger{} }}).Err; err != nil {
				b.Fatal(err)
			}
		}
		c.Start()
		if err := c.Run(Millis(200)); err != nil {
			b.Fatal(err)
		}
		// The machine hosting the most guests, lowest index as tie-break.
		machine := 0
		for m := 1; m < cfg.Hosts; m++ {
			if len(cp.Pool().Residents(m)) > len(cp.Pool().Residents(machine)) {
				machine = m
			}
		}
		affected := cp.Pool().Residents(machine)
		done := false
		b.StartTimer()
		if oc := cp.Apply(FailOp{Machine: machine}); oc.Rejected() {
			b.Fatal(oc.Err)
		}
		if oc := cp.Apply(EvacuateOp{Machine: machine, Done: func(oc *Outcome) {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
			done = true
		}}); oc.Rejected() {
			b.Fatal(oc.Err)
		}
		for until := Millis(250); !done && until < Seconds(30); until += Millis(50) {
			if err := c.Run(until); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if !done {
			b.Fatal("evacuation never completed")
		}
		if err := cp.Apply(RepairOp{Machine: machine}).Err; err != nil {
			b.Fatal(err)
		}
		for _, id := range affected {
			g, _ := c.Guest(id)
			if err := g.CheckLockstepPrefix(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(affected)), "residents-moved")
		b.StartTimer()
	}
}

// BenchmarkTheorem1Packing regenerates the Theorem-1 maximum packing counts.
func BenchmarkTheorem1Packing(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for n := 3; n <= 999; n++ {
			k, err := Theorem1Max(n)
			if err != nil {
				b.Fatal(err)
			}
			total += k
		}
	}
	b.ReportMetric(float64(total), "sum-k(3..999)")
}

// BenchmarkTheorem2Placement regenerates the Sec.-VIII constructive
// placements (n=99, c=(n-1)/2) with full verification.
func BenchmarkTheorem2Placement(b *testing.B) {
	var guests int
	for i := 0; i < b.N; i++ {
		p, err := PlaceTheorem2(99, 49)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			b.Fatal(err)
		}
		guests = p.Guests()
	}
	b.ReportMetric(float64(guests), "guests(n=99,c=49)")
	b.ReportMetric(float64(guests)/99, "gain-vs-isolation")
}

// BenchmarkDeltaCalibration regenerates the Sec. VII-A Δn sweep.
func BenchmarkDeltaCalibration(b *testing.B) {
	cfg := DefaultCalibConfig()
	cfg.DeltaNsMS = []float64{4, 12}
	cfg.Duration = Seconds(4)
	var r *CalibResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunCalib(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Points[0].Divergences), "divergences@4ms")
	b.ReportMetric(float64(r.Points[len(r.Points)-1].Divergences), "divergences@12ms")
	b.ReportMetric(r.Points[len(r.Points)-1].MeanLatencyMS, "latency-ms@12ms")
}

// BenchmarkCollabAttack regenerates the Sec.-IX ablation: marginalizing one
// replica, and 5 replicas as the countermeasure.
func BenchmarkCollabAttack(b *testing.B) {
	cfg := DefaultCollabConfig()
	cfg.Duration = Seconds(6)
	var r *CollabResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunCollab(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range r.Points {
		b.ReportMetric(p.KS, "KS-"+p.Name)
	}
}

// BenchmarkLeaderAblation regenerates the median-vs-leader ablation
// (Sec. II design argument). Needs enough samples for the KS ordering to
// stabilize; shorter runs are dominated by ECDF noise.
func BenchmarkLeaderAblation(b *testing.B) {
	cfg := DefaultLeaderConfig()
	cfg.Duration = Seconds(15)
	var r *LeaderResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = RunLeader(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.KSMedian, "KS-median")
	b.ReportMetric(r.KSLeader, "KS-leader")
}
