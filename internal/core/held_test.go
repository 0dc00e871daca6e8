package core

import (
	"fmt"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
)

// heldRun is one run of heldFixture: a log per machine and the end state.
type heldRun struct {
	logs  [][]heldEntry
	end   []string
	fired uint64
	// What the run went through, so an equal pair proves something.
	pauses, resent, replaced int
}

// heldEntry is one line of a machine's log: when, which guest, what, and
// the numbers it carries (formatted only when two logs part).
type heldEntry struct {
	at    sim.Time
	gid   string
	what  string
	nums  [6]int64
	stats vmm.RuntimeStats
}

func (e heldEntry) String() string {
	return fmt.Sprintf("%v %s %s %v %+v", e.at, e.gid, e.what, e.nums, e.stats)
}

// heldLog wraps a replica's proposal and pacing sinks and its delivery hook,
// logging each onto its machine's log with the replica's progress, pauses
// and resends.
type heldLog struct {
	w    *replicaWiring
	logs [][]heldEntry
}

func (h *heldLog) add(what string, a, b, c int64) {
	w := h.w
	h.logs[w.hostIdx] = append(h.logs[w.hostIdx], heldEntry{at: w.hn.host.Loop().Now(), gid: w.gid, what: what,
		nums: [6]int64{a, b, c, w.rt.Instr(), int64(w.rt.Stats().Pauses), int64(w.resent)}})
}

func (h *heldLog) SendProposal(view, seq uint64, v vtime.Virtual) {
	h.add("propose", int64(view), int64(seq), int64(v))
	h.w.SendProposal(view, seq, v)
}

func (h *heldLog) PaceReport(v vtime.Virtual, epoch int64, s vtime.EpochSample) {
	h.w.PaceReport(v, epoch, s)
	h.add("pace", int64(v), epoch, 0)
}

func (h *heldLog) watch() {
	h.w.nd.SendProposal = h
	h.w.rt.OnPace = h
	h.w.rt.OnNetDeliver = func(seq uint64, v vtime.Virtual, real sim.Time) {
		h.add("deliver", int64(seq), int64(v), int64(real))
	}
}

// heldFixture runs guest "web" (a file server fetched from a client) on
// machines 0-2 beside two compute-heavy guests that slow machine 1, so the
// fast replicas pause; the Dom0 link from machine 0 to machine 1 drops a
// tenth of its packets for a while, so proposals are resent; machine 2
// crashes, the survivors' view drops it, and a replica rebuilt from a
// checkpoint on machine 5 replaces it. With epochs every guest runs an epoch
// coordinator. every makes each beacon an arrival event. Every replica's
// proposals, beacons and deliveries are logged on its machine's log, and
// a control-loop sweep logs each replica's progress, pauses, resends and
// acks every millisecond.
func heldFixture(t *testing.T, seed uint64, shards int, epochs, every bool) heldRun {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.Seed, cfg.Hosts, cfg.Shards = seed, 6, shards
	cfg.VMM.CheckpointInstr = 20 * cfg.VMM.ExitEvery
	if epochs {
		cfg.VMM.EpochInstr = 50_000_000
	}
	c := mustCluster(t, cfg)
	c.everyReport = every
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"load-a", "load-b"} {
		period := vtime.Virtual(3+2*i) * vtime.Virtual(sim.Millisecond)
		if _, err := c.Deploy(id, []int{1, 3, 4}, func() guest.App {
			b := apps.NewBeaconApp(period)
			b.Compute = 8_000_000
			b.Sink = "sink"
			return b
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	run := heldRun{logs: make([][]heldEntry, cfg.Hosts)}
	for m := range run.logs {
		run.logs[m] = make([]heldEntry, 0, 4096)
	}
	watch := func() {
		for _, id := range c.GuestIDs() {
			for _, w := range c.guests[id].replicas {
				if _, ok := w.rt.OnPace.(*heldLog); !ok {
					(&heldLog{w: w, logs: run.logs}).watch()
				}
			}
		}
	}
	watch()
	c.Start()

	dl := apps.NewDownloader(cl)
	var fetch func()
	fetch = func() {
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 24<<10, func(sim.Time) { fetch() })
	}
	c.Loop().At(10*sim.Millisecond, "fetch", fetch)
	var sweep func()
	sweep = func() {
		for _, id := range c.GuestIDs() {
			for _, w := range c.guests[id].replicas {
				// A dead machine's wiring is never pulled by the cluster.
				if !c.hosts[w.hostIdx].Failed() {
					w.Pull()
				}
				e := heldEntry{at: c.Loop().Now(), gid: id, what: "sweep", stats: w.rt.Stats(),
					nums: [6]int64{w.rt.Instr(), int64(w.sent), int64(w.resent), int64(w.out.Base()), -1, -1}}
				for i, l := range w.links {
					e.nums[4+i] = int64(l.acked)
				}
				run.logs[w.hostIdx] = append(run.logs[w.hostIdx], e)
			}
		}
		c.Loop().After(sim.Millisecond, "sweep", sweep)
	}
	c.Loop().At(0, "sweep", sweep)
	c.Loop().At(60*sim.Millisecond, "loss", func() {
		if err := c.Net().InjectLoss("dom0:host0", "dom0:host1", 0.1); err != nil {
			t.Fatal(err)
		}
	})
	c.Loop().At(160*sim.Millisecond, "heal", func() {
		if err := c.Net().HealLink("dom0:host0", "dom0:host1"); err != nil {
			t.Fatal(err)
		}
	})
	c.Loop().At(200*sim.Millisecond, "crash", func() {
		if err := c.FailMachine(2); err != nil {
			t.Fatal(err)
		}
	})
	c.Loop().At(210*sim.Millisecond, "view", func() {
		if err := c.MarkReplicaDead("web", 2); err != nil {
			t.Fatal(err)
		}
		c.Ingress().Pause("web")
	})
	var replace func()
	replace = func() {
		if !c.GuestQuiescent("web") {
			c.Loop().After(5*sim.Millisecond, "replace", replace)
			return
		}
		if err := c.ReplaceReplica("web", 2, 5); err != nil {
			t.Fatal(err)
		}
		c.Ingress().Resume("web")
		watch()
	}
	c.Loop().At(240*sim.Millisecond, "replace", replace)
	if err := c.Run(400 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	run.replaced = g.Replaced
	run.end = append(run.end, fmt.Sprintf("replaced %d", g.Replaced))
	for _, id := range c.GuestIDs() {
		for k, w := range c.guests[id].replicas {
			vm, s := w.rt.VM(), w.rt.Stats()
			run.end = append(run.end, fmt.Sprintf("%s/%d on %d: stats %+v instr %d outputs %d digest %x resent %d",
				id, k, w.hostIdx, s, w.rt.Instr(), vm.OutputCount(), vm.OutputDigest(), w.resent))
			run.pauses += s.Pauses
			run.resent += int(w.resent)
		}
	}
	run.end = append(run.end, fmt.Sprintf("fabric %+v", c.Net().Stats()))
	run.fired = c.Coordinator().FiredTotal()
	return run
}

// heldSeeds is how many seeds TestHeldBeaconsEqualEveryBeaconEvent runs; a
// race build, ten times slower, runs fewer (race_test.go).
var heldSeeds uint64 = 24

// TestHeldBeaconsEqualEveryBeaconEvent holds the beacons that arrive without
// an event to the reference where every beacon is one: at 24 seeds on 1, 2
// and 4 shards, with pauses, lost and resent proposals, a crash with a view
// change and a checkpointed replacement — and, in a second set, epochs,
// under which no beacon is held — every machine's log of proposals, beacons
// (with its replica's progress, pauses and resends), deliveries and the
// sweep's samples is equal, and so are the end-state runtime counters,
// output digests and fabric counters. The held runs fire fewer events.
func TestHeldBeaconsEqualEveryBeaconEvent(t *testing.T) {
	var pauses, resent, saved int
	for _, epochs := range []bool{false, true} {
		for seed := uint64(1); seed <= heldSeeds; seed++ {
			for _, shards := range []int{1, 2, 4} {
				ref := heldFixture(t, seed, shards, epochs, true)
				if ref.replaced != 1 {
					t.Fatalf("epochs %v seed %d shards %d: the replacement never happened", epochs, seed, shards)
				}
				got := heldFixture(t, seed, shards, epochs, false)
				for m := range ref.logs {
					if i, ok := firstDiff(got.logs[m], ref.logs[m]); !ok {
						t.Fatalf("epochs %v seed %d shards %d: machine %d's log parts at line %d:\n  held:  %s\n  every: %s",
							epochs, seed, shards, m, i, line(got.logs[m], i), line(ref.logs[m], i))
					}
				}
				if i, ok := firstDiff(got.end, ref.end); !ok {
					t.Fatalf("epochs %v seed %d shards %d: end state parts:\n  held:  %s\n  every: %s", epochs, seed, shards, line(got.end, i), line(ref.end, i))
				}
				switch {
				case epochs && got.fired != ref.fired:
					t.Fatalf("seed %d shards %d: under epochs %d events fired, %d in the reference", seed, shards, got.fired, ref.fired)
				case !epochs && got.fired >= ref.fired:
					t.Fatalf("seed %d shards %d: %d events fired holding beacons, %d without", seed, shards, got.fired, ref.fired)
				}
				pauses += got.pauses
				resent += got.resent
				saved += int(ref.fired - got.fired)
			}
		}
	}
	t.Logf("over every run: %d pauses, %d resends, %d events saved", pauses, resent, saved)
	if pauses == 0 || resent == 0 {
		t.Fatalf("%d pauses, %d resends: the fixture no longer reaches what the rules are about", pauses, resent)
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff[E comparable](a, b []E) (int, bool) {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

func line[E any](l []E, i int) string {
	if i < len(l) {
		return fmt.Sprint(l[i])
	}
	return "(end of log)"
}

// pairRun runs script on a four-host cluster whose Dom0 links have no
// jitter, with a probe guest "g" on hosts 0-2, to until: once with every
// beacon an arrival event and once holding them. Replica 0 must pause
// pauses times in the reference, and run as many instructions and pause as
// often holding beacons. script runs before Start and schedules what it
// needs; held tells it which run it is in.
func pairRun(t *testing.T, until sim.Time, pauses int64, script func(c *Cluster, g *Guest, held bool)) {
	t.Helper()
	var out [2][2]int64
	for i, every := range []bool{true, false} {
		cfg := DefaultClusterConfig()
		cfg.Hosts = 4
		cfg.CloudLink.JitterMax = 0
		c := mustCluster(t, cfg)
		c.everyReport = every
		g, err := c.Deploy("g", []int{0, 1, 2}, func() guest.App { return apps.NewProbeApp() })
		if err != nil {
			t.Fatal(err)
		}
		script(c, g, !every)
		c.Start()
		if err := c.Run(until); err != nil {
			t.Fatal(err)
		}
		w := g.replicas[0]
		out[i] = [2]int64{w.rt.Instr(), int64(w.rt.Stats().Pauses)}
	}
	if out[0][1] != pauses {
		t.Fatalf("replica 0 paused %d times in the reference, want %d", out[0][1], pauses)
	}
	if out[1] != out[0] {
		t.Fatalf("replica 0 ran %d instructions and paused %d times holding beacons, %d and %d in the reference",
			out[1][0], out[1][1], out[0][0], out[0][1])
	}
}

// forgeBeacon sends, from w's Dom0 now, the beacon w would send to peer
// with progress v.
func forgeBeacon(c *Cluster, w, peer *replicaWiring, v vtime.Virtual) {
	c.Net().Send(&netsim.Packet{Src: w.hn.addr, Dst: peer.hn.addr, Size: 48, Kind: "swpace", Payload: peer,
		Body: netsim.PacketBody{Kind: netsim.BodyPace, GuestID: w.gid, Origin: w.hostName, Virt: v, Data: w}})
}

// TestFirstPeerReportIsAnEvent pins the no-peer-report rule: a replica with
// no peer report runs unpaced, so the first report to arrive may pause it at
// once, and must be an event. Replica 0 hears neither peer (their links to
// it drop everything) while both are frozen at 20 ms; at 30.5 ms, 10 ms
// ahead of them, it gets replica 1's beacon and must pause at the next
// boundary, not at its own next beacon (32 ms), which a held one waits for.
func TestFirstPeerReportIsAnEvent(t *testing.T) {
	pairRun(t, 40*sim.Millisecond, 1, func(c *Cluster, g *Guest, _ bool) {
		w0, w1, w2 := g.replicas[0], g.replicas[1], g.replicas[2]
		for _, w := range []*replicaWiring{w1, w2} {
			if err := c.Net().InjectLoss(w.hn.addr, w0.hn.addr, 1); err != nil {
				t.Fatal(err)
			}
		}
		c.Loop().At(20*sim.Millisecond, "freeze", func() {
			w1.rt.Stop()
			w2.rt.Stop()
		})
		c.Loop().At(30*sim.Millisecond+500*sim.Microsecond, "report", func() {
			if err := c.Net().HealLink(w1.hn.addr, w0.hn.addr); err != nil {
				t.Fatal(err)
			}
			forgeBeacon(c, w1, w0, w1.rt.VirtAtLastExit())
		})
	})
}

// TestEventBeaconPullsTheHeldOneFirst pins Deliver's pull: a link holds one
// beacon, so a second in flight behind it is an event, and the held one,
// which arrives first, must be folded before it. Replica 2's machine is
// gone and replica 1 is frozen at 40 ms; then replica 1's Dom0 sends two
// beacons at once, its progress and 50 ms past it. The first is held and
// the second is an event at the same instant; folded in the wrong order,
// the older report lowers replica 1's progress back, and replica 0 pauses
// 4 ms later instead of running on to 70 ms.
func TestEventBeaconPullsTheHeldOneFirst(t *testing.T) {
	pairRun(t, 70*sim.Millisecond, 0, func(c *Cluster, g *Guest, held bool) {
		w0, w1 := g.replicas[0], g.replicas[1]
		c.Loop().At(20*sim.Millisecond, "crash", func() {
			if err := c.FailMachine(2); err != nil {
				t.Fatal(err)
			}
		})
		c.Loop().At(30*sim.Millisecond, "view", func() {
			if err := c.MarkReplicaDead("g", 2); err != nil {
				t.Fatal(err)
			}
		})
		c.Loop().At(40*sim.Millisecond, "reports", func() {
			w1.rt.Stop()
			v := w1.rt.VirtAtLastExit()
			forgeBeacon(c, w1, w0, v)
			forgeBeacon(c, w1, w0, v+vtime.Virtual(50*sim.Millisecond))
			if held && !w0.links[0].holding {
				t.Fatal("the first beacon was not held")
			}
		})
	})
}

// TestEmptiedViewHandsBackHeldReports pins SetView's hand-back: a view that
// leaves a replica no peer report turns its held reports back into events,
// since the no-peer-report rule now holds for them. Replica 0 hears only
// replica 1, so replica 2's beacon at 30.5 ms (10 ms behind, replica 2
// frozen at 20 ms) is held; in the same instant replica 1's machine fails
// and the view drops it. Replica 0 must pause when that beacon arrives,
// not at its own next beacon (32 ms).
func TestEmptiedViewHandsBackHeldReports(t *testing.T) {
	pairRun(t, 40*sim.Millisecond, 1, func(c *Cluster, g *Guest, held bool) {
		w0, w2 := g.replicas[0], g.replicas[2]
		if err := c.Net().InjectLoss(w2.hn.addr, w0.hn.addr, 1); err != nil {
			t.Fatal(err)
		}
		c.Loop().At(20*sim.Millisecond, "freeze", w2.rt.Stop)
		c.Loop().At(30*sim.Millisecond+500*sim.Microsecond, "report", func() {
			if err := c.Net().HealLink(w2.hn.addr, w0.hn.addr); err != nil {
				t.Fatal(err)
			}
			forgeBeacon(c, w2, w0, w2.rt.VirtAtLastExit())
			if held && !w0.links[1].holding {
				t.Fatal("replica 2's beacon was not held")
			}
			if err := c.FailMachine(1); err != nil {
				t.Fatal(err)
			}
			if err := c.MarkReplicaDead("g", 1); err != nil {
				t.Fatal(err)
			}
		})
	})
}
