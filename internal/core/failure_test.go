package core

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Failure injection at the cluster level: lossy cloud fabric (NAK recovery
// end-to-end), a dead replica (egress liveness), and background broadcast
// noise (the paper's /24 subnet conditions).

func TestDownloadSurvivesLossyCloudFabric(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 5
	// 5% loss on every intra-cloud link: ingress replication and proposal
	// exchange must recover via NAKs; the client link stays clean (its
	// reliability belongs to TCP, exercised elsewhere).
	cfg.CloudLink.LossProb = 0.05
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	done := 0
	dl := apps.NewDownloader(cl)
	var kick func()
	fetches := 0
	kick = func() {
		if fetches >= 5 {
			return
		}
		fetches++
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 50<<10, func(sim.Time) {
			done++
			kick()
		})
	}
	c.Loop().At(20*sim.Millisecond, "fetch", kick)
	if err := c.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 5 {
		t.Fatalf("completed %d/5 downloads under 5%% cloud loss", done)
	}
	// Loss on the egress→client path is absorbed by TCP above; lockstep
	// must hold regardless.
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceSurvivesDeadReplica(t *testing.T) {
	// Kill one replica mid-run: the egress still forwards on the second
	// copy, so the client keeps receiving data. (Inbound-median liveness
	// with a dead replica requires the recovery path the paper sketches in
	// footnote 4 — state copy — which is out of scope; here the dead
	// replica keeps proposing by virtue of its VMM being alive, but its
	// guest is stopped, which matches a crashed-guest fault.)
	cfg := DefaultClusterConfig()
	cfg.Seed = 9
	c := mustCluster(t, cfg)
	cfgFS := apps.DefaultFileServerConfig()
	cfgFS.Mode = apps.ModeUDP
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, cfgFS))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// Stop replica 2's guest execution after its boot; its VMM/device
	// models stay up (proposals still flow), but it emits no outputs.
	c.Loop().At(10*sim.Millisecond, "kill", func() { g.Replica(2).Runtime().Stop() })
	done := 0
	dl := apps.NewDownloader(cl)
	c.Loop().At(50*sim.Millisecond, "fetch", func() {
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeUDP, 100<<10, func(sim.Time) { done++ })
	})
	if err := c.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("download with dead replica: %d/1 (egress stuck=%d)", done, c.Egress().StuckBelowForward())
	}
	// The two live replicas stayed in lockstep with each other.
	if g.Replica(0).Runtime().VM().OutputDigest() != g.Replica(1).Runtime().VM().OutputDigest() {
		t.Fatal("live replicas diverged")
	}
}

func TestDeadReplicaIsReplacedAndRejoinsLockstep(t *testing.T) {
	// The Sec. VII recovery path: a replica dies mid-run, the survivors'
	// state is used to reconstruct it on a fresh host (journal replay), and
	// the guest ends the scenario with THREE replicas in strict lockstep —
	// not merely tolerating the hole.
	cfg := DefaultClusterConfig()
	cfg.Seed = 17
	cfg.Hosts = 5
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	done := 0
	dl := apps.NewDownloader(cl)
	var kick func()
	fetches := 0
	kick = func() {
		if fetches >= 6 {
			return
		}
		fetches++
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 50<<10, func(sim.Time) {
			done++
			kick()
		})
	}
	c.Loop().At(20*sim.Millisecond, "fetch", kick)

	// Replica 2 crashes at t=300ms, mid-traffic.
	c.Loop().At(300*sim.Millisecond, "kill", func() { g.Replica(2).Runtime().Stop() })

	// The replacement barrier: pause the ingress stream, let the fabric and
	// proposal exchange drain, then switch over and resume.
	replaced := false
	var tryReplace func()
	attempts := 0
	tryReplace = func() {
		attempts++
		if !c.GuestQuiescent("web") {
			if attempts > 50 {
				t.Fatal("guest never quiesced for replacement")
			}
			c.Loop().After(20*sim.Millisecond, "replace:retry", tryReplace)
			return
		}
		// The crash window's outputs were forwarded at the survivors' two
		// copies and ended there: nothing waits for the dead replica's third
		// copy, so the switchover has nothing to sweep.
		if eg := c.Egress(); eg.Forwarded() == 0 || eg.PendingGroups() != 0 {
			t.Fatalf("crash window left %d copy groups open after %d forwards", eg.PendingGroups(), eg.Forwarded())
		}
		if err := c.ReplaceReplica("web", 2, 3); err != nil {
			t.Fatalf("ReplaceReplica: %v", err)
		}
		c.Ingress().Resume("web")
		replaced = true
	}
	c.Loop().At(400*sim.Millisecond, "replace", func() {
		c.Ingress().Pause("web")
		c.Loop().After(50*sim.Millisecond, "replace:try", tryReplace)
	})

	if err := c.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Fatal("replacement never happened")
	}
	if done != 6 {
		t.Fatalf("completed %d/6 downloads across the replacement", done)
	}
	if g.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1", g.Replaced)
	}
	if eg := c.Egress(); eg.PendingGroups() != 0 || eg.StuckBelowForward() != 0 {
		t.Fatalf("after the replacement: pending %d, stuck %d; want 0, 0", eg.PendingGroups(), eg.StuckBelowForward())
	}
	if got := g.HostIndexes(); got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("replica hosts after replacement: %v", got)
	}
	// The reconstructed replica is byte-for-byte level with the survivors:
	// strict lockstep across all three, including outputs emitted before
	// the crash (replayed into the digest) and after the switchover.
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if n := g.Replica(2).Runtime().VM().OutputCount(); n == 0 {
		t.Fatal("replacement replica emitted nothing")
	}
	// And it actually served post-switchover traffic (live sends beyond the
	// replayed prefix).
	if s := g.Replica(2).Runtime().Stats(); s.ReplayedSends == 0 {
		t.Fatal("replacement did not replay any survivor outputs")
	} else if int(g.Replica(2).Runtime().VM().Stats().PacketsSent) <= s.ReplayedSends {
		t.Fatal("replacement emitted no live outputs after the switchover")
	}
}

// TestReviveRefusesWhileAGuestResides: a failed machine is revived only
// once nothing resides on it. A StopWatch guest's dead replica holds it
// until the replica is replaced, and a baseline guest until it is
// undeployed; each refusal wraps ErrCluster and names the guest.
func TestReviveRefusesWhileAGuestResides(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Seed = 17
	cfg.Hosts = 5
	c := mustCluster(t, cfg)
	if _, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("base", []int{3}, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := c.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	refused := func(m int, id string) {
		t.Helper()
		err := c.ReviveMachine(m)
		if !errors.Is(err, ErrCluster) || !strings.Contains(err.Error(), strconv.Quote(id)) {
			t.Fatalf("reviving machine %d under %s: %v", m, id, err)
		}
		if !c.hosts[m].Failed() {
			t.Fatalf("a refused revival cleared machine %d's mark", m)
		}
	}
	for _, m := range []int{2, 3} {
		if err := c.FailMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(75 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkReplicaDead("web", 2); err != nil {
		t.Fatal(err)
	}
	refused(2, "web")
	refused(3, "base")

	c.Ingress().Pause("web")
	for !c.GuestQuiescent("web") {
		if err := c.Run(c.Loop().Now() + 5*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ReplaceReplica("web", 2, 4); err != nil {
		t.Fatal(err)
	}
	c.Ingress().Resume("web")
	if err := c.ReviveMachine(2); err != nil {
		t.Fatalf("machine 2 is empty once its replica is replaced: %v", err)
	}
	refused(3, "base")
	if err := c.Undeploy("base"); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveMachine(3); err != nil {
		t.Fatalf("machine 3 is empty once its guest is undeployed: %v", err)
	}
	if c.hosts[2].Failed() || c.hosts[3].Failed() {
		t.Fatal("a revived machine is still marked failed")
	}
}

func TestBackgroundBroadcastNoise(t *testing.T) {
	// The paper's testbed saw 50-100 broadcast packets/s replicated to the
	// guests throughout. Inject similar noise and verify lockstep and
	// service health are unaffected.
	cfg := DefaultClusterConfig()
	cfg.Seed = 11
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	// Noise addressed to the guest's public address traverses the full
	// ingress→median path, like the ARP noise in the paper: 75 packets/s
	// the file server has no use for.
	noise := apps.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("bcast"), "subnet", ServiceAddr("web"), sim.Second/75)
	c.Start()
	noise.Start(3 * sim.Second)
	done := 0
	dl := apps.NewDownloader(cl)
	c.Loop().At(100*sim.Millisecond, "fetch", func() {
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 100<<10, func(sim.Time) { done++ })
	})
	if err := c.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatal("download failed under broadcast noise")
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	// The noise actually reached the guests (delivered via the median path
	// and ignored by the app).
	if noise.Sent() < 150 {
		t.Fatalf("noise packets: %d", noise.Sent())
	}
	if got := g.Replica(0).Runtime().VM().Stats().NetInterrupts; got < int64(noise.Sent()) {
		t.Fatalf("guest saw %d net interrupts, want >= %d noise packets", got, noise.Sent())
	}
}

func TestHostSlowdownPacingKeepsLockstep(t *testing.T) {
	// One host runs a heavy coresident load guest: pacing slows the fast
	// replicas and lockstep must hold.
	cfg := DefaultClusterConfig()
	cfg.Seed = 13
	cfg.Hosts = 5
	c := mustCluster(t, cfg)
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// Two heavy load guests on host 1 (not just one, to force real skew).
	for i, period := range []vtime.Virtual{vtime.Virtual(3 * sim.Millisecond), vtime.Virtual(5 * sim.Millisecond)} {
		id := []string{"load-a", "load-b"}[i]
		period := period
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
	if err := c.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("downloads under skew: %d/3", done)
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
}
