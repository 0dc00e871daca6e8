package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
	"stopwatch/internal/vmm"
)

func mustCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fileServerFactory(t *testing.T, cfg apps.FileServerConfig) func() guest.App {
	t.Helper()
	return func() guest.App {
		fs, err := apps.NewFileServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(ClusterConfig{Hosts: 0, VMM: DefaultClusterConfig().VMM}); !errors.Is(err, ErrCluster) {
		t.Fatal("0 hosts should fail")
	}
	cfg := DefaultClusterConfig()
	cfg.Hosts = 5
	c := mustCluster(t, cfg)
	if _, err := c.Deploy("", []int{0, 1, 2}, nil); !errors.Is(err, ErrCluster) {
		t.Fatal("empty id should fail")
	}
	f := fileServerFactory(t, apps.DefaultFileServerConfig())
	for _, hosts := range [][]int{{}, {0, 1}, {0, 1, 2, 3}} {
		if _, err := c.Deploy("g", hosts, f); !errors.Is(err, ErrCluster) {
			t.Fatalf("a group of %d hosts should fail: the median needs an odd group of at least 3", len(hosts))
		}
	}
	if _, err := c.Deploy("g", []int{0, 0, 1}, f); !errors.Is(err, ErrCluster) {
		t.Fatal("duplicate hosts should fail")
	}
	if _, err := c.Deploy("g", []int{0, 1, 9}, f); !errors.Is(err, ErrCluster) {
		t.Fatal("out-of-range host should fail")
	}
	if _, err := c.Deploy("g", []int{0, 1, 2}, f); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("g", []int{0, 1, 2}, f); !errors.Is(err, ErrCluster) {
		t.Fatal("duplicate guest should fail")
	}
}

// TestIdleClusterHoldsNoLinks: a link exists only for a pair that carried
// traffic or a fault. Deployed guests and clients, admitted in either
// order, wire no client link and no tunnel link up front: each link takes
// its shape from the client's or the egress's access link when first used.
func TestIdleClusterHoldsNoLinks(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 5
	c := mustCluster(t, cfg)
	f := fileServerFactory(t, apps.DefaultFileServerConfig())
	if _, err := c.Deploy("a", []int{0, 1, 2}, f); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []netsim.Addr{"laptop", "phone"} {
		if _, err := c.NewClient(addr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Deploy("b", []int{2, 3, 4}, f); err != nil {
		t.Fatal(err)
	}
	if s := c.Net().Stats(); s.Links != 0 {
		t.Fatalf("an idle cluster holds %d links (%d endpoints), want none", s.Links, s.Endpoints)
	}
}

// TestNewClientRefusesATakenAddress: a second client on an address would
// take over the first one's fabric node, so the first would never hear its
// replies. It is refused, as are the egress's addresses, and the first
// client still completes its fetch.
func TestNewClientRefusesATakenAddress(t *testing.T) {
	c := mustCluster(t, DefaultClusterConfig())
	if _, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []netsim.Addr{"laptop", c.Egress().Addr(), c.Egress().GuestAddr("web"), ""} {
		if _, err := c.NewClient(addr); !errors.Is(err, ErrCluster) {
			t.Errorf("NewClient(%q) = %v, want ErrCluster", addr, err)
		}
	}
	c.Start()
	done := 0
	dl := apps.NewDownloader(cl)
	c.Loop().At(50*sim.Millisecond, "fetch", func() {
		if err := dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 16<<10, func(sim.Time) { done++ }); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("the first client completed %d fetches, want 1", done)
	}
	// And the other way round: a guest whose egress address a client holds
	// is refused, since its tunnel could not take that address's shape.
	if _, err := c.NewClient(c.Egress().GuestAddr("late")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("late", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig())); !errors.Is(err, netsim.ErrNet) {
		t.Fatalf("Deploy onto a client's egress address = %v, want ErrNet", err)
	}
}

func TestStopWatchEndToEndDownload(t *testing.T) {
	c := mustCluster(t, DefaultClusterConfig())
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
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
		t.Fatalf("downloads completed: %d (egress fwd=%d stuck=%d)",
			len(lat), c.Egress().Forwarded(), c.Egress().StuckBelowForward())
	}
	// Replicas stayed in lockstep and actually served.
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if g.Divergences() != 0 {
		t.Fatalf("divergences: %d", g.Divergences())
	}
	for _, r := range g.Replicas() {
		if r.App().(*apps.FileServer).Served() != 1 {
			t.Fatalf("replica %d served %d", r.Slot(), r.App().(*apps.FileServer).Served())
		}
	}
	// Latency must include the Δn tax on inbound packets: well above the
	// bare RTT, below a second.
	if lat[0] < 10*sim.Millisecond || lat[0] > sim.Second {
		t.Fatalf("download latency %v out of plausible StopWatch range", lat[0])
	}
}

func TestBaselineEndToEndDownload(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 1
	c := mustCluster(t, cfg)
	if _, err := c.Deploy("web", []int{0}, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
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
		t.Fatalf("downloads completed: %d", len(lat))
	}
	if lat[0] <= 0 || lat[0] > sim.Second {
		t.Fatalf("baseline latency %v", lat[0])
	}
}

// TestOneClusterRunsBothVMMs: a guest's VMM follows from the hosts it is
// deployed on, so one cluster runs a StopWatch guest on hosts {0,1,2} next to
// a baseline guest alone on host 3. Both serve one client, and the egress
// forwards only the StopWatch guest's outputs. Host 3's failure stops the
// baseline guest, and the StopWatch guest serves on.
func TestOneClusterRunsBothVMMs(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 4
	c := mustCluster(t, cfg)
	factory := fileServerFactory(t, apps.DefaultFileServerConfig())
	sw, err := c.Deploy("sw", []int{0, 1, 2}, factory)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Deploy("base", []int{3}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Baseline != nil || sw.NumReplicas() != 3 || base.Baseline == nil || base.NumReplicas() != 0 {
		t.Fatalf("sw: baseline VM %v, %d replicas; base: baseline VM %v, %d replicas",
			sw.Baseline, sw.NumReplicas(), base.Baseline, base.NumReplicas())
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	forwarded := map[string]int{}
	c.Egress().OnForward = func(g string, _ uint64, _ sim.Time) { forwarded[g]++ }
	c.Start()
	done := map[string]int{}
	dl := apps.NewDownloader(cl)
	fetch := func(at sim.Time, id string) {
		c.Loop().At(at, "fetch", func() {
			if err := dl.Fetch(ServiceAddr(id), apps.ModeTCP, 64<<10, func(sim.Time) { done[id]++ }); err != nil {
				t.Error(err)
			}
		})
	}
	fetch(20*sim.Millisecond, "sw")
	fetch(20*sim.Millisecond, "base")
	if err := c.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done["sw"] != 1 || done["base"] != 1 {
		t.Fatalf("downloads completed: %v", done)
	}
	if len(forwarded) != 1 || forwarded["sw"] == 0 {
		t.Fatalf("egress forwarded %v; want the StopWatch guest's outputs only", forwarded)
	}
	c.Loop().At(3100*sim.Millisecond, "fail", func() {
		if err := c.FailMachine(3); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(3200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	stopped := base.Baseline.VM().Stats().Branches
	fetch(3300*sim.Millisecond, "sw")
	if err := c.Run(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if n := base.Baseline.VM().Stats().Branches; n != stopped {
		t.Fatalf("the baseline guest ran %d branches after its host failed", n-stopped)
	}
	if done["sw"] != 2 {
		t.Fatalf("the StopWatch guest served %d downloads, want 2", done["sw"])
	}
	if err := sw.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
}

// TestOneClusterRunsTwoGroupSizes: a guest's group size follows from its
// host list, so one cluster runs a 3-replica echo guest on hosts {0,1,2}
// next to a 5-replica one on {3,...,7}. Both serve one client in strict
// lockstep, and the egress forwards each output at its own guest's median
// copy: the 2nd of 3 and the 3rd of 5. After host 3 fails, the 5-replica
// guest serves degraded at 4 live replicas and forwards at copy 3. The
// fabric has no jitter, so a copy reaches the egress exactly one Dom0
// output delay and one link latency after its replica sent it.
func TestOneClusterRunsTwoGroupSizes(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 8
	cfg.CloudLink.JitterMax = 0
	c := mustCluster(t, cfg)
	net := c.Net()
	ids := []string{"three", "five"}
	groups := map[string][]int{"three": {0, 1, 2}, "five": {3, 4, 5, 6, 7}}
	// sent[id][seq] are the instants each replica sent that output's copy.
	sent := map[string]map[uint64][]sim.Time{}
	for _, id := range ids {
		hosts := groups[id]
		g, err := c.Deploy(id, hosts, func() guest.App { return echoApp{} })
		if err != nil {
			t.Fatal(err)
		}
		if g.NumReplicas() != len(hosts) {
			t.Fatalf("guest %s has %d replicas on %d hosts", id, g.NumReplicas(), len(hosts))
		}
		sent[id] = map[uint64][]sim.Time{}
		for _, w := range g.replicas {
			loop := w.rt.Host().Loop()
			w.rt.OnSend = vmm.SendSinkFunc(func(a guest.IOAction) {
				sent[id][a.Seq] = append(sent[id][a.Seq], loop.Now())
				w.GuestSend(a)
			})
		}
	}
	// The median copy forwards: copy live/2+1 of the live group's.
	type forward struct {
		id   string
		seq  uint64
		at   sim.Time
		live int
	}
	live := map[string]int{"three": 3, "five": 5}
	var forwards []forward
	c.Egress().OnForward = func(id string, seq uint64, at sim.Time) {
		forwards = append(forwards, forward{id, seq, at, live[id]})
	}
	replies := map[netsim.Addr]int{}
	if err := net.Attach(&netsim.FuncNode{Addr: "laptop", Fn: func(p *netsim.Packet) { replies[p.Src]++ }}); err != nil {
		t.Fatal(err)
	}
	pings := func(from sim.Time) {
		for _, id := range ids {
			for k := range 8 {
				c.Loop().At(from+sim.Time(5*k)*sim.Millisecond, "ping", func() {
					net.Send(net.AllocTo(net.Endpoint("laptop"), net.Endpoint(ServiceAddr(id)), 64, "ping", uint64(k)))
				})
			}
		}
	}
	pings(20 * sim.Millisecond)
	c.Start()
	if err := c.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Host 3 fails; one settle window on, the 5-replica guest's view drops it.
	if err := c.FailMachine(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(125 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkReplicaDead("five", 3); err != nil {
		t.Fatal(err)
	}
	live["five"] = 4
	if g, _ := c.Ingress().Group("five"); len(g) != 4 {
		t.Fatalf("the degraded guest replicates to %v, want its 4 live replicas", g)
	}
	pings(150 * sim.Millisecond)
	if err := c.Run(400 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	for _, id := range ids {
		if n := replies[ServiceAddr(id)]; n != 16 {
			t.Fatalf("the client got %d replies from %s, want 16", n, id)
		}
	}
	if len(forwards) != 32 || c.Egress().PendingGroups() != 0 {
		t.Fatalf("egress forwarded %d outputs with %d groups open, want 32 and 0", len(forwards), c.Egress().PendingGroups())
	}
	delay := vmm.IOBaseDelay + cfg.CloudLink.Latency
	for _, f := range forwards {
		copies := slices.Sorted(slices.Values(sent[f.id][f.seq]))
		median := f.live/2 + 1
		if len(copies) != f.live {
			t.Fatalf("%s output %d: %d copies sent, want one per live replica (%d)", f.id, f.seq, len(copies), f.live)
		}
		if want := copies[median-1] + delay; f.at != want {
			t.Fatalf("%s output %d forwarded at %v, want its copy %d of %d at %v (copies sent at %v)",
				f.id, f.seq, f.at, median, f.live, want, copies)
		}
	}
	three, _ := c.Guest("three")
	five, _ := c.Guest("five")
	if err := three.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	ref := five.replicas[1].rt.VM()
	for _, w := range five.replicas[2:] {
		if vm := w.rt.VM(); vm.OutputDigest() != ref.OutputDigest() || vm.OutputCount() != ref.OutputCount() {
			t.Fatalf("the 5-replica guest's survivor on host %d diverged", w.hostIdx)
		}
	}
	if ref.OutputCount() != 16 || three.Divergences() != 0 || five.Divergences() != 0 {
		t.Fatalf("survivors echoed %d of 16; divergences %d and %d", ref.OutputCount(), three.Divergences(), five.Divergences())
	}
}

// TestBaselineUndeploy: evicting a baseline guest after a download stops
// its VM, takes its service address off the fabric (a later client packet
// to it is lost), and leaves the id free to deploy and serve again.
func TestBaselineUndeploy(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Hosts = 1
	c := mustCluster(t, cfg)
	factory := fileServerFactory(t, apps.DefaultFileServerConfig())
	g, err := c.Deploy("web", []int{0}, factory)
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
	fetch := func(at sim.Time) {
		c.Loop().At(at, "fetch", func() {
			if err := dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 16<<10, func(sim.Time) { done++ }); err != nil {
				t.Error(err)
			}
		})
	}
	fetch(20 * sim.Millisecond)
	if err := c.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("downloads completed: %d", done)
	}
	if err := c.Undeploy("web"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Guest("web"); ok {
		t.Fatal("an undeployed guest is still listed")
	}
	vm := g.Baseline.VM().Stats()
	before := c.Net().Stats()
	c.Net().Send(&netsim.Packet{Src: "laptop", Dst: ServiceAddr("web"), Size: 64, Kind: "probe"})
	if err := c.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if after := c.Net().Stats(); after.Lost != before.Lost+1 || after.Delivered != before.Delivered {
		t.Fatalf("a packet to the evicted guest: fabric %+v -> %+v, want one more lost", before, after)
	}
	if got := g.Baseline.VM().Stats(); got != vm {
		t.Fatalf("the released VM ran on: %+v -> %+v", vm, got)
	}
	if _, err := c.Deploy("web", []int{0}, factory); err != nil {
		t.Fatalf("redeploying the id: %v", err)
	}
	fetch(c.Loop().Now() + 20*sim.Millisecond)
	if err := c.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("the redeployed guest completed %d downloads in all, want 2", done)
	}
}

// TestHalfWiredDeployLeavesNoResident: a deployment that fails part-way
// through wiring its replicas (the factory refuses slot 2) releases the
// slots it wired, so no Dom0 keeps the id and the id deploys and serves.
func TestHalfWiredDeployLeavesNoResident(t *testing.T) {
	c := mustCluster(t, DefaultClusterConfig())
	good := fileServerFactory(t, apps.DefaultFileServerConfig())
	calls := 0
	if _, err := c.Deploy("web", []int{0, 1, 2}, func() guest.App {
		if calls++; calls == 3 {
			return nil
		}
		return good()
	}); err == nil {
		t.Fatal("a deployment whose third replica has no app succeeded")
	}
	for i, hn := range c.hostNodes {
		if _, ok := hn.residents["web"]; ok {
			t.Errorf("host %d still holds the failed guest", i)
		}
	}
	if _, ok := c.Guest("web"); ok {
		t.Fatal("the failed guest is listed")
	}
	g, err := c.Deploy("web", []int{0, 1, 2}, good)
	if err != nil {
		t.Fatalf("redeploying the id: %v", err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	done := false
	dl := apps.NewDownloader(cl)
	c.Loop().At(20*sim.Millisecond, "fetch", func() {
		if err := dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 16<<10, func(sim.Time) { done = true }); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("the redeployed guest served no download")
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
}

func TestStopWatchSlowerThanBaselineButBounded(t *testing.T) {
	// The headline sanity check behind Fig. 5: same download, both modes;
	// StopWatch pays more, but within a small constant factor for a 100KB
	// file (paper: <2.8x at ≥100KB; small files pay relatively more).
	fetch := func(idx []int) sim.Time {
		c := mustCluster(t, DefaultClusterConfig())
		if _, err := c.Deploy("web", idx, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
			t.Fatal(err)
		}
		cl, err := c.NewClient("laptop")
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		var lat sim.Time
		dl := apps.NewDownloader(cl)
		c.Loop().At(50*sim.Millisecond, "fetch", func() {
			if err := dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 1<<20, func(l sim.Time) { lat = l }); err != nil {
				t.Error(err)
			}
		})
		if err := c.Run(60 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if lat == 0 {
			t.Fatal("download did not complete")
		}
		return lat
	}
	base := fetch([]int{0})
	sw := fetch([]int{0, 1, 2})
	if sw <= base {
		t.Fatalf("StopWatch (%v) should cost more than baseline (%v)", sw, base)
	}
	ratio := float64(sw) / float64(base)
	if ratio > 30 {
		t.Fatalf("StopWatch/baseline ratio %.1f implausibly high (sw=%v base=%v)", ratio, sw, base)
	}
}

func TestUDPDownloadThroughStopWatch(t *testing.T) {
	cfg := apps.DefaultFileServerConfig()
	cfg.Mode = apps.ModeUDP
	c := mustCluster(t, DefaultClusterConfig())
	g, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, cfg))
	if err != nil {
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
		if err := dl.Fetch(ServiceAddr("web"), apps.ModeUDP, 1<<20, func(l sim.Time) { lat = append(lat, l) }); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(lat) != 1 {
		t.Fatalf("udp downloads: %d", len(lat))
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	// Exactly one inbound packet needed (the request): the ingress should
	// have replicated exactly 1 client packet.
	if c.Ingress().Replicated() != 1 {
		t.Fatalf("ingress replicated %d packets, want 1 for UDP", c.Ingress().Replicated())
	}
}

func TestTwoGuestsCoresident(t *testing.T) {
	// Six hosts; attacker on {0,1,2}, victim on {2,3,4}: exactly one shared
	// host (2), per the placement constraint.
	cfg := DefaultClusterConfig()
	cfg.Hosts = 5
	c := mustCluster(t, cfg)
	probeFactory := func() guest.App { return apps.NewProbeApp() }
	att, err := c.Deploy("attacker", []int{0, 1, 2}, probeFactory)
	if err != nil {
		t.Fatal(err)
	}
	vic, err := c.Deploy("victim", []int{2, 3, 4}, fileServerFactory(t, apps.DefaultFileServerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("victim-client")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// Probe stream to the attacker.
	ps := apps.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("probe"), "colluder", ServiceAddr("attacker"), 20*sim.Millisecond)
	ps.Start(3 * sim.Second)
	// Victim serves continuous downloads.
	dl := apps.NewDownloader(cl)
	var victimDone int
	var kick func()
	kick = func() {
		_ = dl.Fetch(ServiceAddr("victim"), apps.ModeTCP, 64<<10, func(sim.Time) {
			victimDone++
			kick()
		})
	}
	c.Loop().At(10*sim.Millisecond, "victim-load", kick)
	if err := c.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := att.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if err := vic.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if att.Divergences() != 0 || vic.Divergences() != 0 {
		t.Fatalf("divergences att=%d vic=%d", att.Divergences(), vic.Divergences())
	}
	if victimDone == 0 {
		t.Fatal("victim never served")
	}
	probe := att.App(0).(*apps.ProbeApp)
	if len(probe.DeliveryTimes()) < 50 {
		t.Fatalf("probe saw %d deliveries", len(probe.DeliveryTimes()))
	}
	// All replicas observed IDENTICAL delivery times (that is the defense).
	for i := 1; i < 3; i++ {
		a := att.App(i).(*apps.ProbeApp).DeliveryTimes()
		b := probe.DeliveryTimes()
		if len(a) != len(b) {
			t.Fatalf("replica %d saw %d deliveries vs %d", i, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("replica %d delivery %d differs: %v vs %v", i, k, a[k], b[k])
			}
		}
	}
}

func TestNFSThroughStopWatch(t *testing.T) {
	c := mustCluster(t, DefaultClusterConfig())
	nfsFactory := func() guest.App {
		s, err := apps.NewNFSServer(16)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	g, err := c.Deploy("nfs", []int{0, 1, 2}, nfsFactory)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("nfs-client")
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	gen, err := apps.NewNFSLoadGen(c.Loop(), c.Source().Stream("nfsgen"), cl, ServiceAddr("nfs"), apps.PaperMix(), apps.NFSLoadGenConfig{
		Processes:  5,
		RatePerSec: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(2 * sim.Second)
	if err := c.Run(6 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	if gen.Completed() < gen.Issued()*9/10 {
		t.Fatalf("completed %d/%d ops", gen.Completed(), gen.Issued())
	}
	if gen.Completed() == 0 {
		t.Fatal("no ops completed")
	}
	lats := gen.Latencies()
	var sum sim.Time
	for _, l := range lats {
		sum += l
	}
	mean := sum / sim.Time(len(lats))
	if mean < 5*sim.Millisecond || mean > 500*sim.Millisecond {
		t.Fatalf("mean NFS latency %v implausible", mean)
	}
}

func TestParsecThroughBothModes(t *testing.T) {
	profile := apps.ParsecProfile{
		Name: "mini", ComputeBranches: 20_000_000, DiskReads: 5, BytesPerRead: 16 << 10,
	}
	run := func(idx []int) sim.Time {
		c := mustCluster(t, DefaultClusterConfig())
		var doneAt sim.Time
		if err := c.Net().Attach(&netsim.FuncNode{Addr: "collector", Fn: func(p *netsim.Packet) {
			if doneAt == 0 {
				doneAt = c.Loop().Now()
			}
		}}); err != nil {
			t.Fatal(err)
		}
		factory := func() guest.App {
			a, err := apps.NewParsecApp(profile, "collector")
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		if _, err := c.Deploy("parsec", idx, factory); err != nil {
			t.Fatal(err)
		}
		c.Start()
		if err := c.Run(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if doneAt == 0 {
			t.Fatalf("hosts %v: workload never finished", idx)
		}
		return doneAt
	}
	base := run([]int{0})
	sw := run([]int{0, 1, 2})
	if sw <= base {
		t.Fatalf("StopWatch parsec (%v) should exceed baseline (%v)", sw, base)
	}
	// Overhead should be roughly DiskReads × Δd-ish — bounded well below
	// 10x for this profile.
	if float64(sw)/float64(base) > 10 {
		t.Fatalf("parsec ratio %.1f implausible", float64(sw)/float64(base))
	}
}

func TestEgressMedianTimingOrder(t *testing.T) {
	// The egress must forward each output exactly once and in guest output
	// order for a single-threaded response stream.
	c := mustCluster(t, DefaultClusterConfig())
	if _, err := c.Deploy("web", []int{0, 1, 2}, fileServerFactory(t, apps.DefaultFileServerConfig())); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("laptop")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	c.Egress().OnForward = func(g string, seq uint64, at sim.Time) { seqs = append(seqs, seq) }
	c.Start()
	dl := apps.NewDownloader(cl)
	done := false
	c.Loop().At(50*sim.Millisecond, "fetch", func() {
		_ = dl.Fetch(ServiceAddr("web"), apps.ModeTCP, 50<<10, func(sim.Time) { done = true })
	})
	if err := c.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("download incomplete")
	}
	if len(seqs) == 0 {
		t.Fatal("egress forwarded nothing")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("egress forward order broken at %d: %v", i, seqs)
		}
	}
}

var _ = transport.MSS // silence potential unused import if tests change

// TestCheckLockstepNamesFirstDifference: a lockstep failure names the
// output at which a replica's log parts from replica 0's, with both counts.
func TestCheckLockstepNamesFirstDifference(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(80 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLockstep(); err != nil {
		t.Fatal(err)
	}
	log0, log1 := g.replicas[0].rt.VM().OutputLog(), g.replicas[1].rt.VM().OutputLog()
	n := log0.Len()
	log1.Append(1, "client", 64, "extra")
	want := fmt.Sprintf("replica 1 diverged: agrees on the common prefix (outputs %d vs %d)", n+1, n)
	if err := g.CheckLockstep(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want %q", err, want)
	}
	log0.Append(1, "client", 64, "other")
	want = fmt.Sprintf("replica 1 diverged: differs at output %d (outputs %d vs %d)", n+1, n+1, n+1)
	if err := g.CheckLockstep(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want %q", err, want)
	}
	// Once the parting output is older than the digest history, the oldest
	// held one is named instead.
	for i := range 600 {
		log0.Append(uint64(i+2), "client", 64, "same")
		log1.Append(uint64(i+2), "client", 64, "same")
	}
	want = fmt.Sprintf("replica 1 diverged: differs at or before output %d (outputs %d vs %d)", n+601-511, n+601, n+601)
	if err := g.CheckLockstep(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want %q", err, want)
	}
}

// TestCheckLockstepPrefixNamesFirstDifference: the mid-flight check names
// the output at which a replica parts from the first checked one, in
// CheckLockstep's words, and tolerates a replica that has merely run ahead.
func TestCheckLockstepPrefixNamesFirstDifference(t *testing.T) {
	c, g, send := probeCluster(t, 1)
	c.Loop().At(20*sim.Millisecond, "send", send)
	if err := c.Run(80 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	logs := []*guest.OutputLog{
		g.replicas[0].rt.VM().OutputLog(), g.replicas[1].rt.VM().OutputLog(), g.replicas[2].rt.VM().OutputLog(),
	}
	n := logs[0].Len()
	// Replica 0 runs one output ahead: the common prefix still agrees.
	logs[0].Append(1, "client", 64, "same")
	if err := g.CheckLockstepPrefix(); err != nil {
		t.Fatal(err)
	}
	logs[1].Append(1, "client", 64, "other")
	logs[2].Append(1, "client", 64, "same")
	want := fmt.Sprintf("replica 1 diverged: differs at output %d (outputs %d vs %d)", n+1, n+1, n+1)
	if err := g.CheckLockstepPrefix(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want %q", err, want)
	}
	if err := g.CheckLockstepPrefixExcluding(1); err != nil {
		t.Fatal(err)
	}
	// Once the parting output is older than the digest history, the oldest
	// held one is named instead.
	for i := range 600 {
		logs[0].Append(uint64(i+2), "client", 64, "same")
		logs[1].Append(uint64(i+2), "client", 64, "same")
	}
	want = fmt.Sprintf("replica 1 diverged: differs at or before output %d (outputs %d vs %d)", n+601-511, n+601, n+601)
	if err := g.CheckLockstepPrefixExcluding(2); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want %q", err, want)
	}
}
