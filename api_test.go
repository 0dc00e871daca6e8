package stopwatch

// Tests of the public façade: the API a downstream user sees. These are
// deliberately written only against the root package.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 99
	cloud, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	web, err := cloud.Deploy("web", []int{0, 1, 2}, func() App {
		fs, err := NewFileServer(DefaultFileServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := cloud.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	cloud.Start()
	dl := NewDownloader(client)
	var gotLatency Time
	cloud.Loop().At(Millis(20), "fetch", func() {
		if err := dl.Fetch(GuestAddr("web"), ModeTCP, 100<<10, func(lat Time) { gotLatency = lat }); err != nil {
			t.Error(err)
		}
	})
	if err := cloud.Run(Seconds(30)); err != nil {
		t.Fatal(err)
	}
	if gotLatency <= 0 {
		t.Fatal("download did not complete")
	}
	if err := web.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if cloud.Ingress().Replicated() == 0 || cloud.Egress().Forwarded() == 0 {
		t.Fatal("gateways idle")
	}
}

func TestPublicAPISeededDeterminism(t *testing.T) {
	run := func() (Time, uint64) {
		cfg := DefaultClusterConfig()
		cfg.Seed = 1234
		cloud, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		web, err := cloud.Deploy("web", []int{0, 1, 2}, func() App {
			fs, err := NewFileServer(DefaultFileServerConfig())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		})
		if err != nil {
			t.Fatal(err)
		}
		client, err := cloud.NewClient("laptop")
		if err != nil {
			t.Fatal(err)
		}
		cloud.Start()
		dl := NewDownloader(client)
		var lat Time
		cloud.Loop().At(Millis(20), "fetch", func() {
			_ = dl.Fetch(GuestAddr("web"), ModeTCP, 64<<10, func(l Time) { lat = l })
		})
		if err := cloud.Run(Seconds(20)); err != nil {
			t.Fatal(err)
		}
		return lat, web.Replica(0).Runtime().VM().OutputDigest()
	}
	lat1, dig1 := run()
	lat2, dig2 := run()
	if lat1 != lat2 || dig1 != dig2 {
		t.Fatalf("same seed, different results: %v/%x vs %v/%x", lat1, dig1, lat2, dig2)
	}
	if lat1 == 0 {
		t.Fatal("no download")
	}
}

func TestPublicPlacementAPI(t *testing.T) {
	k, err := Theorem1Max(99)
	if err != nil {
		t.Fatal(err)
	}
	if k != 99*98/6 {
		t.Fatalf("Theorem1Max(99) = %d (99 ≡ 3 mod 6 admits a Steiner system)", k)
	}
	p, err := PlaceTheorem2(21, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2, c ≡ 2 (mod 3): (c-1)·n/3 + (n-3)/6 guests.
	if want := 4*21/3 + 18/6; p.Guests() != want {
		t.Fatalf("guests %d, want %d", p.Guests(), want)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	gp, err := GreedyPack(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := gp.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTimeHelpers(t *testing.T) {
	if Seconds(1) != Second || Millis(1) != Millisecond {
		t.Fatal("helpers wrong")
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond || Microsecond != 1000*Nanosecond {
		t.Fatal("constants wrong")
	}
}

func TestPublicNFSAndParsecTypes(t *testing.T) {
	if len(PaperNFSMix()) != 6 {
		t.Fatal("mix")
	}
	if len(PaperParsecProfiles()) != 5 {
		t.Fatal("profiles")
	}
	srv, err := NewNFSServer(8)
	if err != nil || srv == nil {
		t.Fatal(err)
	}
	app, err := NewParsecApp(PaperParsecProfiles()[0], "collector")
	if err != nil || app == nil {
		t.Fatal(err)
	}
	probe := NewProbeApp()
	if probe == nil {
		t.Fatal("probe nil")
	}
}

// TestPublicOperationsAPI drives the unified operations surface through the
// façade only: typed Ops through Apply, the Watch event stream, the
// append-only log, folded stats, and the uniform infeasibility sentinel.
func TestPublicOperationsAPI(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 77
	cfg.Hosts = 6
	cloud, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(cloud, DefaultControlPlaneConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var events []OpEvent
	cancel := cp.Watch(func(ev OpEvent) { events = append(events, ev) })
	factory := func() App { return NewBeaconApp(Virtual(2 * Millisecond)) }
	// 6 hosts at capacity 1 fit exactly two edge-disjoint triangles.
	var outcomes []*Outcome
	for i := 0; i < 3; i++ {
		outcomes = append(outcomes, cp.Apply(AdmitOp{GuestID: fmt.Sprintf("g%d", i), Factory: factory}))
	}
	if outcomes[0].Err != nil || outcomes[1].Err != nil {
		t.Fatalf("admissions failed: %v, %v", outcomes[0].Err, outcomes[1].Err)
	}
	if !errors.Is(outcomes[2].Err, ErrNoFeasibleHost) {
		t.Fatalf("full pool rejection not ErrNoFeasibleHost: %v", outcomes[2].Err)
	}
	if outcomes[0].Guest == nil || outcomes[0].Triangle == outcomes[1].Triangle {
		t.Fatal("admit outcomes incomplete")
	}
	if oc := cp.Apply(EvictOp{GuestID: "g1"}); oc.Err != nil {
		t.Fatal(oc.Err)
	}
	log := cp.Log()
	if len(log) != 4 {
		t.Fatalf("op log has %d entries, want 4", len(log))
	}
	st := FoldOpStats(log)
	if st.Admitted != 2 || st.Rejected != 1 || st.Evicted != 1 {
		t.Fatalf("folded stats %+v", st)
	}
	if st != cp.Stats() {
		t.Fatalf("Stats() %+v != fold %+v", cp.Stats(), st)
	}
	if FormatOpLog(log) == "" || !strings.Contains(FormatOpLog(log), "admit g0") {
		t.Fatal("op log renders nothing")
	}
	// The stream saw every op start and complete; cancel stops delivery.
	starts, ends := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case OpStarted:
			starts++
		case OpCompleted, OpFailed:
			ends++
		}
	}
	if starts != 4 || ends != 4 {
		t.Fatalf("watch saw %d starts, %d completions, want 4/4", starts, ends)
	}
	cancel()
	before := len(events)
	cp.Apply(EvictOp{GuestID: "ghost"})
	if len(events) != before {
		t.Fatal("cancelled watcher still receiving")
	}
}

// TestCheckpointBoundsReplay pins the checkpointed-journal claim: what a
// replacement replays is bounded by the checkpoint interval, not by how long
// the guest has lived. The same guest, pinged every 2 ms so its journal holds
// a resolved delivery per ping, loses a replica after 200 ms and after 2 s.
// Without checkpoints the replayed records grow with the lifetime; with a
// checkpoint every 4M instructions (about 4 ms of guest time, two pings)
// the journal is truncated behind each checkpoint and the replacement
// restores the latest one and replays only the records past it.
func TestCheckpointBoundsReplay(t *testing.T) {
	replace := func(lived Time, ckptInstr int64) (replayed int, restoredInstr int64, retained int) {
		t.Helper()
		cfg := DefaultClusterConfig()
		cfg.Hosts = 5
		cfg.VMM.CheckpointInstr = ckptInstr
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := NewControlPlane(c, DefaultControlPlaneConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		oc := cp.Apply(AdmitOp{GuestID: "web", Factory: func() App {
			b := NewBeaconApp(Virtual(2 * Millisecond))
			b.Compute, b.DiskBytes = 200_000, 0
			return b
		}})
		if oc.Err != nil {
			t.Fatal(oc.Err)
		}
		g, tri := oc.Guest, oc.Triangle
		if err := c.Net().Attach(&FuncNode{Addr: "pinger"}); err != nil {
			t.Fatal(err)
		}
		c.Start()
		var ping func()
		ping = func() {
			if c.Loop().Now() >= lived {
				return
			}
			c.Net().Send(&Packet{Src: "pinger", Dst: GuestAddr("web"), Size: 128, Kind: "ping"})
			c.Loop().After(2*Millisecond, "ping", ping)
		}
		c.Loop().After(2*Millisecond, "ping", ping)
		if err := c.Run(lived); err != nil {
			t.Fatal(err)
		}
		slot, _ := g.SlotOnHost(tri[0])
		g.Replica(slot).Runtime().Stop()
		retained = g.JournalStats().Records
		done := false
		if oc := cp.Apply(ReplaceOp{GuestID: "web", DeadHost: tri[0], Done: func(oc *Outcome) {
			if oc.Err != nil {
				t.Fatal(oc.Err)
			}
			done = true
		}}); oc.Rejected() {
			t.Fatal(oc.Err)
		}
		if err := c.Run(lived + Seconds(10)); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("replacement never completed")
		}
		if err := g.CheckLockstepPrefix(); err != nil {
			t.Fatal(err)
		}
		st := g.Replica(slot).Runtime().Stats()
		return st.ReplayedRecords, st.RestoredInstr, retained
	}

	short, restored, _ := replace(Millis(200), 0)
	long, _, retained := replace(Seconds(2), 0)
	if restored != 0 {
		t.Fatalf("checkpointing off, yet replay restored a checkpoint at instr %d", restored)
	}
	if short == 0 || long < 5*short || retained < long {
		t.Fatalf("without checkpoints replay should grow with lifetime: %d records after 200 ms, %d after 2 s (%d retained)", short, long, retained)
	}
	// What a checkpointed journal may hold: the deliveries scheduled up to
	// Δn ahead of the guest's clock, one interval's pings behind it that the
	// next checkpoint has not covered yet, and one in flight.
	const period, interval = Virtual(2 * Millisecond), Virtual(4 * Millisecond)
	bound := int((DefaultVMMConfig().DeltaN+interval)/period) + 1
	ckpt, restored, retained := replace(Seconds(2), 4_000_000)
	if restored == 0 {
		t.Fatal("checkpointing on, yet replacement replayed from boot")
	}
	if ckpt > bound || retained > bound {
		t.Fatalf("with checkpoints every 4M instr the journal retained %d records and replacement replayed %d, want at most %d each (%d without)", retained, ckpt, bound, long)
	}
}
