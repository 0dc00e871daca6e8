package stopwatch

// BenchmarkClusterScale is the repo's perf yardstick for the discrete-event
// hot path: a whole cloud (10/50/200/1000 machines) under simultaneous
// tenant churn and client traffic, measured as simulator event throughput.
// Unlike the figure benches (which measure paper quantities), this one
// measures the enforcement layer itself: ns/op is what one simulated run of
// the deterministic timing-replication machinery costs on the hardware,
// events/op how many host events realise it (deterministic), and allocs/op
// (via -benchmem) the steady-state garbage the packet pipeline produces. Each size runs twice — single-shard (the sequential baseline
// the BENCH_*.json trajectory has tracked since PR 5) and "mc"
// (Shards=NumCPU: the conservative-lookahead coordinator executing windows
// on one goroutine per shard). The simulation schedule, and therefore
// events/op and pkts/simsec, is identical in both; only wall-clock moves.
// BENCH_*.json record the trajectory; CI gates on events/op and ns/op at
// /200 against BENCH_13.json (events/sec is still reported, but a change
// that fires fewer, heavier events lowers it while lowering ns/op).

import (
	"fmt"
	"runtime"
	"testing"

	"stopwatch/internal/controlplane"
)

// benchScale runs one cloud size on `shards` fabric shards: hosts machines
// at capacity 4, one tenant per machine on average, client pings to every
// tenant plus a rolling evict/re-admit churn through the middle of the run.
func benchScale(b *testing.B, hosts, shards int) {
	const simMillis = 200.0
	var fired, pkts uint64
	var simSeconds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultClusterConfig()
		cfg.Hosts = hosts
		cfg.Shards = shards
		cfg.Seed = uint64(i + 1)
		c, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := NewControlPlane(c, DefaultControlPlaneConfig(4))
		if err != nil {
			b.Fatal(err)
		}
		factory := func() App { return &benchPinger{} }
		ids := make([]string, hosts)
		for g := 0; g < hosts; g++ {
			ids[g] = fmt.Sprintf("scale-%d", g)
			if err := cp.Apply(AdmitOp{GuestID: ids[g], Factory: factory}).Err; err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Net().Attach(&FuncNode{Addr: "bench-sink"}); err != nil {
			b.Fatal(err)
		}
		c.Start()
		// Client traffic: ping every tenant every 10 simulated ms.
		var ping func()
		ping = func() {
			for _, id := range ids {
				c.Net().Send(&Packet{Src: "bench-sink", Dst: GuestAddr(id), Size: 200, Kind: "ping"})
			}
			c.Loop().After(Millis(10), "scale:ping", ping)
		}
		c.Loop().After(Millis(5), "scale:ping", ping)
		// Churn: one evict + re-admit per 20 simulated ms, round-robin.
		victim := 0
		var churn func()
		churn = func() {
			id := ids[victim%hosts]
			if oc := cp.Apply(controlplane.EvictOp{GuestID: id}); oc.Err != nil {
				b.Fatal(oc.Err)
			}
			ids[victim%hosts] = fmt.Sprintf("scale-%d-r%d", victim%hosts, victim)
			if oc := cp.Apply(controlplane.AdmitOp{GuestID: ids[victim%hosts], Factory: factory}); oc.Err != nil {
				b.Fatal(oc.Err)
			}
			victim++
			c.Loop().After(Millis(20), "scale:churn", churn)
		}
		c.Loop().After(Millis(15), "scale:churn", churn)
		b.StartTimer()
		if err := c.Run(Millis(simMillis)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fired += c.Coordinator().FiredTotal()
		pkts += c.Net().Stats().Delivered
		simSeconds += simMillis / 1000
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
	b.ReportMetric(float64(pkts)/simSeconds, "pkts/simsec")
}

// BenchmarkClusterScale sweeps cloud sizes; /200 is the headline number the
// ROADMAP perf trajectory tracks (and the CI events/op + ns/op gates), /1000 is the
// multi-core showcase. The bare size is the single-shard baseline; the /mc
// variant partitions the machines across NumCPU fabric shards. "mc" is a
// fixed label (not the shard count) so bench names — and the BENCH_*.json
// baselines CI gates against — stay stable across machines.
func BenchmarkClusterScale(b *testing.B) {
	for _, hosts := range []int{10, 50, 200, 1000} {
		hosts := hosts
		b.Run(fmt.Sprintf("%d", hosts), func(b *testing.B) { benchScale(b, hosts, 1) })
		b.Run(fmt.Sprintf("%d/mc", hosts), func(b *testing.B) { benchScale(b, hosts, runtime.NumCPU()) })
	}
}
