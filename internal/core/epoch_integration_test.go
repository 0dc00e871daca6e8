package core

import (
	"fmt"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// TestEpochResyncEndToEnd enables the optional Sec. IV-A epoch
// re-synchronization across a full cluster: replicas exchange (D,R) samples
// over the fabric, hit the epoch barriers together, adjust their virtual
// clocks identically, and still serve traffic in lockstep.
func TestEpochResyncEndToEnd(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 21
	// Epoch of 50M instructions ≈ 50ms of virtual time: several epochs
	// within the run. Must be a multiple of ExitEvery.
	cfg.VMM.EpochInstr = 50_000_000
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Replicas() {
		if r.Epoch() == nil {
			t.Fatalf("replica %d has no epoch coordinator", r.Slot())
		}
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	done := 0
	dl := apps.NewDownloader(cl)
	var kick func()
	kicks := 0
	kick = func() {
		if kicks >= 3 {
			return
		}
		kicks++
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 64<<10, func(sim.Time) {
			done++
			kick()
		})
	}
	c.Loop().At(20*sim.Millisecond, "fetch", kick)
	if err := c.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("downloads with epochs enabled: %d/3", done)
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if g.Divergences() != 0 {
		t.Fatalf("divergences: %d", g.Divergences())
	}
	// Epoch adjustments actually happened, and consistently across
	// replicas (counts may straggle by one at the cutoff).
	minAdj, maxAdj := g.Replica(0).Epoch().Adjustments(), g.Replica(0).Epoch().Adjustments()
	for _, r := range g.Replicas()[1:] {
		if a := r.Epoch().Adjustments(); a < minAdj {
			minAdj = a
		} else if a > maxAdj {
			maxAdj = a
		}
	}
	if minAdj < 5 {
		t.Fatalf("too few epoch adjustments: %d", minAdj)
	}
	if maxAdj-minAdj > 1 {
		t.Fatalf("epoch adjustment counts diverged: %d..%d", minAdj, maxAdj)
	}
}

// TestEpochBarrierSurvivesLoss holds the epoch barrier to the fabric the
// rest of the protocol survives: with 2 % loss on one replica pair's Dom0
// link, a lost sample is repaired by the next pacing beacon, so the guest
// keeps adjusting (59 adjustments in 3 s lossless) instead of freezing at the
// first barrier whose sample was dropped — and does so identically with the
// replicas' beacons crossing a shard boundary.
func TestEpochBarrierSurvivesLoss(t *testing.T) {
	type outcome struct {
		digests     []uint64
		adjustments []int
	}
	run := func(t *testing.T, seed uint64, shards int) outcome {
		cfg := DefaultClusterConfig()
		cfg.Seed, cfg.Shards = seed, shards
		cfg.VMM.EpochInstr = 50_000_000
		c := mustCluster(t, cfg)
		g, err := c.Deploy("web", []int{0, 1, 2}, func() guest.App {
			b := apps.NewBeaconApp(vtime.Virtual(10 * sim.Millisecond))
			b.DiskBytes = 16 << 10
			b.Sink = "sink"
			return b
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Net().Attach(&netsim.FuncNode{Addr: "sink", Fn: func(*netsim.Packet) {}}); err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]netsim.Addr{{"dom0:host0", "dom0:host1"}, {"dom0:host1", "dom0:host0"}} {
			if err := c.Net().InjectLoss(pair[0], pair[1], 0.02); err != nil {
				t.Fatal(err)
			}
		}
		c.Start()
		if err := c.Run(3 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if err := g.CheckLockstep(); err != nil {
			t.Fatal(err)
		}
		if n := g.Divergences(); n != 0 {
			t.Fatalf("divergences: %d", n)
		}
		var o outcome
		for _, r := range g.Replicas() {
			a := r.Epoch().Adjustments()
			if a < 55 {
				t.Fatalf("replica %d made %d epoch adjustments, want ≥ 55 (59 lossless)", r.Slot(), a)
			}
			o.digests = append(o.digests, r.Runtime().VM().OutputDigest())
			o.adjustments = append(o.adjustments, a)
		}
		return o
	}
	for _, seed := range []uint64{3, 5, 9, 11} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			one, two := run(t, seed, 1), run(t, seed, 2)
			if fmt.Sprint(one) != fmt.Sprint(two) {
				t.Fatalf("shards 1 and 2 differ:\n K=1 %+v\n K=2 %+v", one, two)
			}
		})
	}
}

// TestEpochReplacementLockstepProperty is the epoch-compatible replacement
// property: across seeds, with and without checkpointed journals, a guest
// running under Sec. IV-A epoch re-synchronization whose replica crashes
// mid-traffic is replaced through the quiesce barrier and ends in lockstep,
// with epoch adjustment counts still consistent — the regime the journal
// replay path used to reject outright (`EpochInstr > 0` was an error).
func TestEpochReplacementLockstepProperty(t *testing.T) {
	for _, seed := range []uint64{3, 5, 9} {
		for _, ckpt := range []int64{0, 4_000_000} {
			t.Run(fmt.Sprintf("seed%d_ckpt%d", seed, ckpt), func(t *testing.T) {
				cfg := DefaultClusterConfig()
				cfg.Seed = seed
				cfg.Hosts = 5
				// ~50ms of virtual time per epoch (the end-to-end test's
				// cadence): the run crosses tens of barriers, several of
				// them around the replacement window.
				cfg.VMM.EpochInstr = 50_000_000
				cfg.VMM.CheckpointInstr = ckpt
				c := mustCluster(t, cfg)
				g, err := c.Deploy("web", []int{0, 1, 2}, func() guest.App {
					// Disk-backed bursts at a load the Dom0 disk sustains: 64 KB
					// every 3 ms overruns it and diverges with epochs off too.
					b := apps.NewBeaconApp(vtime.Virtual(10 * sim.Millisecond))
					b.DiskBytes = 16 << 10
					b.Sink = "sink"
					return b
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Net().Attach(&netsim.FuncNode{Addr: "sink", Fn: func(*netsim.Packet) {}}); err != nil {
					t.Fatal(err)
				}
				if err := c.Net().Attach(&netsim.FuncNode{Addr: "probe", Fn: func(*netsim.Packet) {}}); err != nil {
					t.Fatal(err)
				}
				c.Start()
				// Inbound pings keep resolved deliveries flowing into the
				// journal across the crash and the replacement.
				var ping func()
				ping = func() {
					if c.Loop().Now() >= 1500*sim.Millisecond {
						return
					}
					c.Net().Send(&netsim.Packet{Src: "probe", Dst: ServiceAddr("web"), Size: 128, Kind: "ping"})
					c.Loop().After(10*sim.Millisecond, "ping", ping)
				}
				c.Loop().At(30*sim.Millisecond, "ping", ping)

				c.Loop().At(300*sim.Millisecond, "kill", func() { g.Replica(1).Runtime().Stop() })
				replaced := false
				attempts := 0
				var tryReplace func()
				tryReplace = func() {
					attempts++
					if !c.GuestQuiescent("web") {
						if attempts > 100 {
							t.Error("guest never quiesced for replacement")
							c.Stop()
							return
						}
						c.Loop().After(20*sim.Millisecond, "replace:retry", tryReplace)
						return
					}
					if err := c.ReplaceReplica("web", 1, 3); err != nil {
						t.Errorf("ReplaceReplica under epochs: %v", err)
						c.Stop()
						return
					}
					c.Ingress().Resume("web")
					replaced = true
				}
				c.Loop().At(400*sim.Millisecond, "replace", func() {
					c.Ingress().Pause("web")
					c.Loop().After(50*sim.Millisecond, "replace:try", tryReplace)
				})
				if err := c.Run(2 * sim.Second); err != nil {
					t.Fatal(err)
				}
				if !replaced {
					t.Fatal("replacement never happened")
				}
				fresh := g.Replica(1)
				if fresh.Epoch() == nil {
					t.Fatal("replacement replica has no epoch coordinator")
				}
				if err := g.CheckLockstepPrefix(); err != nil {
					t.Fatal(err)
				}
				if g.Divergences() != 0 {
					t.Fatalf("divergences: %d", g.Divergences())
				}
				// The replacement kept adjusting epochs in lockstep with the
				// survivors after the switchover.
				minAdj, maxAdj := -1, -1
				for _, r := range g.Replicas() {
					a := r.Epoch().Adjustments()
					if minAdj < 0 || a < minAdj {
						minAdj = a
					}
					if a > maxAdj {
						maxAdj = a
					}
				}
				if minAdj < 5 {
					t.Fatalf("too few epoch adjustments: %d", minAdj)
				}
				if maxAdj-minAdj > 1 {
					t.Fatalf("epoch adjustment counts diverged: %d..%d", minAdj, maxAdj)
				}
				if st := fresh.Runtime().Stats(); ckpt > 0 {
					// Checkpointing must have engaged and bounded the replay.
					if g.JournalStats().Checkpoints == 0 {
						t.Fatal("no checkpoints taken")
					}
					if st.RestoredInstr == 0 {
						t.Fatal("replacement did not restore from a checkpoint")
					}
				} else if st.RestoredInstr != 0 {
					t.Fatal("checkpointing off, yet replay restored a checkpoint")
				}
			})
		}
	}
}
