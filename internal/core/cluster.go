// Package core assembles the StopWatch cloud: machines, guests, the
// ingress/egress gateway pair, the inter-VMM proposal and pacing protocols,
// and external clients. A guest's VMM and group size follow from where it is
// deployed: on one machine it runs alone under the baseline VMM, on an odd
// number (at least 3) of machines it runs replicated under StopWatch with
// that many replicas, and guests of every kind and size share one cluster.
// It is the integration layer every experiment and example builds on.
package core

import (
	"errors"
	"fmt"

	"stopwatch/internal/gateway"
	"stopwatch/internal/guest"
	"stopwatch/internal/metrics"
	"stopwatch/internal/multicast"
	"stopwatch/internal/netsim"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
)

// ErrCluster reports invalid cluster configuration or use.
var ErrCluster = errors.New("core: invalid")

// HostFailedError is Deploy's and ReplaceReplica's refusal to build a replica
// on a machine whose VMM is dead. The cluster fails closed; the caller that
// picked the machine learns from Host which of its records is stale.
type HostFailedError struct{ Host int }

func (e *HostFailedError) Error() string {
	return fmt.Sprintf("%v: host %d is failed — a replica placed there would be born dead", ErrCluster, e.Host)
}

func (e *HostFailedError) Unwrap() error { return ErrCluster }

// Mode is unused.
//
// Deprecated: a guest's VMM follows from the hosts Deploy is given.
type Mode int

// Modes.
//
// Deprecated: see Mode.
const (
	ModeStopWatch Mode = iota + 1
	ModeBaseline
)

// ClusterConfig describes a simulated cloud.
type ClusterConfig struct {
	// Seed drives every random stream in the simulation.
	Seed uint64
	// Hosts is the number of machines.
	Hosts int
	// Shards is the number of fabric shards (simulation loops) the machines
	// are partitioned across, in contiguous blocks (host i → shard
	// i*Shards/Hosts, so neighbouring machines share a shard). 0 means 1. The
	// simulation schedule — and therefore every digest — is identical for
	// every shard count; Shards only chooses how many cores may execute it.
	Shards int
	// Mode is ignored.
	//
	// Deprecated: a guest's VMM follows from the hosts Deploy is given.
	Mode Mode
	// VMM carries the hypervisor tunables.
	VMM vmm.Config
	// CloudLink is the intra-cloud fabric link (hosts, gateways): the
	// fabric default, and without its loss the egress's access link.
	CloudLink netsim.LinkConfig
}

// DefaultClusterConfig returns a three-host cloud in the paper's regime:
// sub-millisecond LAN inside the cloud, a campus WLAN to the client
// (clientLink).
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Seed:  1,
		Hosts: 3,
		VMM:   vmm.DefaultConfig(),
		CloudLink: netsim.LinkConfig{
			Latency:   150 * sim.Microsecond,
			JitterMax: 50 * sim.Microsecond,
		},
	}
}

// clientLink is every client's access link. The paper's client sat on a
// campus 802.11 network: a few ms of latency and ~20 Mbps of bandwidth.
// Transmission delay dominating disk access is what makes UDP-over-StopWatch
// competitive with the baselines (Sec. VII-C).
var clientLink = netsim.LinkConfig{
	Latency:      4 * sim.Millisecond,
	JitterMax:    300 * sim.Microsecond,
	BandwidthBps: 2_500_000,
}

// Host i's clock runs at drift hostDrift[i%5] from offset hostOffset[i%5]:
// machines whose clocks disagree, as a cloud's do.
var (
	hostDrift  = [...]float64{0, 1.8e-5, -1.2e-5, 0.7e-5, -2.1e-5}
	hostOffset = [...]sim.Time{0, 2 * sim.Millisecond, 5 * sim.Millisecond, 9 * sim.Millisecond, 13 * sim.Millisecond}
)

// Cluster is a running simulated cloud.
type Cluster struct {
	cfg ClusterConfig
	// loop is the control loop: drivers, the control plane, detectors and
	// lifecycle operations schedule here, and its events run at coordinator
	// barriers while every shard loop is parked — so control code may touch
	// any shard's state, exactly as it always has.
	loop       *sim.Loop
	shardLoops []*sim.Loop
	coord      *sim.Coordinator
	src        *sim.Source
	net        *netsim.Network

	hosts     []*vmm.Host
	hostNodes []*hostNode

	// Stall-detector wiring (detect.go): a positive deadline runs the
	// sweep, which marks overdue machines in suspects (one flag per
	// machine, reused) and hands each to onStallSuspect.
	stallDeadline  sim.Time
	onStallSuspect func(machine int)
	suspects       []bool

	// noReconcile turns ReconcileSurvivors into a no-op (the ablation
	// switch, DisableViewReconcile).
	noReconcile bool

	// everyReport makes every pacing beacon an arrival event: the reference
	// the held-report equivalence tests compare against. Tests only.
	everyReport bool

	ingress *gateway.Ingress
	egress  *gateway.Egress

	guests map[string]*Guest

	// started flips at Start; guests deployed afterwards (online
	// admissions) boot immediately.
	started bool

	// scratchNames/scratchAddrs back reconcileGroups' live-set computation.
	scratchNames []string
	scratchAddrs []netsim.Addr

	// replayLen observes the records replayed per replica replacement.
	replayLen metrics.Histogram
}

// Guest is a deployed guest VM (all its replicas). Per-slot replica state
// is owned by the internal wiring and read through the slot-addressed
// accessors (Replica, Replicas, HostIndexes) in replica.go.
type Guest struct {
	ID string
	// Replaced counts replica replacements performed on this guest.
	Replaced int

	// Baseline is the runtime of a guest deployed on one host, nil under
	// StopWatch.
	Baseline *vmm.BaselineRuntime

	// Online-lifecycle state of a StopWatch guest. replicas is the single
	// source of truth for per-slot wiring.
	factory  func() guest.App
	boots    []sim.Time
	journal  *vmm.Journal
	replicas []*replicaWiring
	// egress is the guest's egress node resolved: its replicas tunnel there.
	egress *netsim.Endpoint
	// view is the guest's group-view number, bumped on every group
	// reconfiguration (deploy, replica replacement, failure reconfig) and
	// installed into every live replica's device model in the same instant.
	view uint64

	// A baseline guest's host and app (no replica wiring exists).
	baselineHost int
	baselineApp  guest.App
}

// replicaWiring is one replica's wiring, and its host node's record of the
// resident (hostNode.residents). It owns no fabric address: all it sends
// leaves from its host's Dom0. Peer lists are read through the struct at
// send time, so replica replacement can rewire a running guest by mutating
// them. The wiring itself implements the VMM's
// sink interfaces (proposal exchange, pacing fan-out, egress tunnelling),
// so wiring a replica installs plain pointers instead of per-replica
// closures.
//
// A proposal or a beacon names its two ends: the packet's Payload is the
// wiring it is for and its Body.Data the one it comes from, so the receiving
// Dom0 hands it over without a lookup.
type replicaWiring struct {
	c        *Cluster
	hn       *hostNode
	gid      string
	hostIdx  int
	hostName string
	rt       *vmm.Runtime
	nd       *vmm.NetDevice
	app      guest.App
	ec       *vmm.EpochCoordinator
	// egress is the guest's egress node; released marks a wiring torn down
	// (releaseReplicaWiring), which drops whatever still reaches it.
	egress   *netsim.Endpoint
	released bool
	// sent numbers this replica's proposals; out keeps each one until every
	// live peer's beacon has acked it; resent counts resends, lost or not.
	sent, resent uint64
	out          seqwin.Window[sentProp]
	// links are the live peers in slot order: proposals and pacing beacons
	// go to their Dom0s. No beacon they hold arrives before due (sim.Never
	// when they hold none).
	links []peerLink
	due   sim.Time
}

// sentProp is one numbered proposal, kept for resending.
type sentProp struct {
	view, seq uint64
	virt      vtime.Virtual
	at        sim.Time // its last send
}

// peerLink is the proposal exchange with one live peer: each side numbers
// its proposals and acks the other's in its pacing beacon, so the next
// beacon finds a loss and no timer runs. A link to a peer new to the group
// starts in sync: a fresh replacement expects each survivor's count + 1,
// and each survivor expects the fresh one's proposal 1 and takes its own
// count as acked.
type peerLink struct {
	peer *replicaWiring
	// next is the lowest of the peer's proposals not yet received in order;
	// our beacons ack next − 1. Those that land past a gap (links are FIFO,
	// so after a loss) are not counted: they are resent once more.
	next uint64
	// acked is the highest of our proposals the peer's beacons have acked;
	// missing is the highest a beacon has shown the peer lacking.
	acked, missing uint64
	// held is the peer's beacon that arrives without an event
	// (hostNode.Hold), while holding; a second in flight is an event.
	held    heldBeacon
	holding bool
}

// heldBeacon is what a held pacing beacon carries: the peer's progress and
// its ack of our proposals, and when it arrives.
type heldBeacon struct {
	at   netsim.Arrival
	virt vtime.Virtual
	ack  uint64
}

var (
	_ vmm.ProposalSink = (*replicaWiring)(nil)
	_ vmm.PaceSink     = (*replicaWiring)(nil)
	_ vmm.SendSink     = (*replicaWiring)(nil)
)

// SendProposal implements vmm.ProposalSink: one unicast of this replica's
// delivery-time proposal to each live peer Dom0, kept until acked. Held acks
// wait: they only retire from the window, and the next pull retires the same.
func (w *replicaWiring) SendProposal(view, seq uint64, v vtime.Virtual) {
	w.sent++
	if len(w.links) == 0 {
		w.out.SkipTo(w.sent + 1) // a sole survivor has nobody to resend to
	} else {
		p := sentProp{view: view, seq: seq, virt: v, at: w.hn.host.Loop().Now()}
		// A window at seqwin.MaxSpan (no ack for that long) keeps no more.
		if slot, _ := w.out.Open(w.sent); slot != nil {
			*slot = p
		}
		for i := range w.links {
			w.sendProp(w.links[i].peer, w.sent, &p)
		}
	}
}

func (w *replicaWiring) sendProp(to *replicaWiring, n uint64, p *sentProp) {
	pkt := w.c.net.AllocTo(w.hn.ep, to.hn.ep, 64, "swprop", to)
	pkt.Body = netsim.PacketBody{
		Kind: netsim.BodyProp, GuestID: w.gid, Origin: w.hostName, View: p.view, Seq: p.seq, Virt: p.virt, StreamSeq: n, Data: w,
	}
	w.c.net.Send(pkt)
}

// onAck takes a beacon's ack from link l's peer: it retires what every live
// peer holds, and resends to this peer whatever it lacks that is too old to
// be in flight. A proposal and a beacon sent against it each take at most
// Latency + JitterMax, so a loss-free run never resends; a lost resend is
// retried at the next beacon.
func (w *replicaWiring) onAck(l *peerLink, ack uint64) {
	w.ack(l, ack)
	w.resend(l, w.sent, 0)
}

// ack records link l's peer's ack and retires what every live peer holds.
func (w *replicaWiring) ack(l *peerLink, ack uint64) {
	l.acked = max(l.acked, ack)
	lo := w.sent
	for i := range w.links {
		lo = min(lo, w.links[i].acked)
	}
	w.out.SkipTo(lo + 1)
}

// overdueBy reports whether a beacon acking ack over l that arrives at t
// would find a proposal to resend (onAck): one out now, or one sent from
// now on if t is more than a resend wait away.
func (w *replicaWiring) overdueBy(l *peerLink, ack uint64, t sim.Time) bool {
	cl := w.c.cfg.CloudLink
	wait := 2 * (cl.Latency + cl.JitterMax)
	ack = max(ack, l.acked)
	for n, p := range w.out.All() {
		if n > ack && t-p.at > wait {
			return true
		}
	}
	return t-w.hn.host.Loop().Now() > wait
}

// Pull implements vmm.HeldReports: it applies the held beacons whose
// arrival has passed, their progress and their ack, which is all their
// arrivals changed.
func (w *replicaWiring) Pull() {
	loop := w.hn.host.Loop()
	if loop.Now() < w.due {
		return
	}
	w.due = sim.Never
	for i := range w.links {
		l := &w.links[i]
		if !l.holding {
			continue
		}
		b := l.held
		if !loop.ArrivalPassed(b.at.When, b.at.K1, b.at.K2) {
			w.due = min(w.due, b.at.When)
			continue
		}
		l.holding = false
		w.rt.FoldPeerVirt(l.peer.hostName, b.virt)
		w.ack(l, b.ack)
	}
}

// Unhold implements vmm.HeldReports: the beacons whose arrival has not
// passed become arrival events again.
func (w *replicaWiring) Unhold() {
	w.Pull()
	for i := range w.links {
		if l := &w.links[i]; l.holding {
			b := netsim.PacketBody{Kind: netsim.BodyPace, GuestID: w.gid, Origin: l.peer.hostName, Virt: l.held.virt, StreamSeq: l.held.ack, Data: l.peer}
			w.c.net.Unhold(l.held.at, w, &b)
			l.holding = false
		}
	}
}

// resend sends l's peer each proposal in (l.acked, upTo] last sent more
// than wait plus a round trip ago, and marks it missing there.
func (w *replicaWiring) resend(l *peerLink, upTo uint64, wait sim.Time) {
	now, cl := w.hn.host.Loop().Now(), w.c.cfg.CloudLink
	for n, p := range w.out.All() {
		if n > l.acked && n <= upTo && now-p.at > wait+2*(cl.Latency+cl.JitterMax) {
			p.at = now
			l.missing = max(l.missing, n)
			w.resent++
			w.sendProp(l.peer, n, p)
		}
	}
}

// PaceReport implements vmm.PaceSink: unicast progress beacons to the peer
// Dom0s (periodic, loss-tolerant), each acking that peer's proposals and,
// under epochs, carrying the latest epoch sample (the next beacon repeats
// it if this one is lost); nothing is boxed per tick. Each also resends
// what a beacon has shown missing, not what a silent peer has merely left
// unacked, once a loss-free ack (the peer's beacon period plus a round
// trip) is overdue: a lost resend is retried while the acks are lost too.
func (w *replicaWiring) PaceReport(v vtime.Virtual, epoch int64, s vtime.EpochSample) {
	w.Pull()
	net, size := w.c.net, 48
	if epoch >= 0 {
		size += 24 // the sample's epoch index, D and R
	}
	for i := range w.links {
		l := &w.links[i]
		if l.missing > l.acked {
			w.resend(l, l.missing, vmm.PaceInterval)
		}
		p := net.AllocTo(w.hn.ep, l.peer.hn.ep, size, "swpace", l.peer)
		p.Body.Kind, p.Body.GuestID, p.Body.Origin, p.Body.Virt = netsim.BodyPace, w.gid, w.hostName, v
		p.Body.StreamSeq, p.Body.Epoch, p.Body.Sample, p.Body.Data = l.next-1, epoch+1, s, w
		net.Send(p)
	}
}

// GuestSend implements vmm.SendSink: egress tunnelling of guest outputs
// (Sec. VI), departing after the Dom0 output-path delay: the base delay of
// inbound processing, without its load jitter (outbound DMA is cheap).
func (w *replicaWiring) GuestSend(a guest.IOAction) {
	net := w.c.net
	p := net.AllocTo(w.hn.ep, w.egress, a.Size, "egress:tunnel", nil)
	p.Body = netsim.PacketBody{
		Kind: netsim.BodyEgress, GuestID: w.gid, Origin: w.hostName, Seq: a.Seq,
		OrigDst: a.Dst, Size: a.Size, Data: a.Data,
	}
	net.SendAfter(p, vmm.IOBaseDelay)
}

// CheckLockstep verifies all replicas produced identical outputs. A failure
// names the first output at which a replica's log parts from replica 0's.
func (g *Guest) CheckLockstep() error {
	if len(g.replicas) < 2 {
		return nil
	}
	vm0 := g.replicas[0].rt.VM()
	for i, w := range g.replicas[1:] {
		vm := w.rt.VM()
		if vm.OutputDigest() == vm0.OutputDigest() && vm.OutputCount() == vm0.OutputCount() {
			continue
		}
		return diverged(g.ID, i+1, vm.OutputLog(), vm0.OutputLog())
	}
	return nil
}

// diverged reports replica k's output log parting from ref's, naming the
// first output at which it does.
func diverged(id string, k int, l, ref *guest.OutputLog) error {
	at := "agrees on the common prefix"
	if n, exact := l.FirstDifference(ref); !exact {
		at = fmt.Sprintf("differs at or before output %d", n)
	} else if n > 0 {
		at = fmt.Sprintf("differs at output %d", n)
	}
	return fmt.Errorf("%w: guest %s replica %d diverged: %s (outputs %d vs %d)", ErrCluster, id, k, at, l.Len(), ref.Len())
}

// Divergences sums the runtime divergence counters across replicas.
func (g *Guest) Divergences() int {
	n := 0
	for _, w := range g.replicas {
		n += w.rt.Stats().Divergences
	}
	return n
}

// hostNode is a host's Dom0 fabric endpoint: it demultiplexes ingress
// streams, peer proposals and pacing reports for every guest replica
// resident on the host, and holds the beacons whose arrival instant cannot
// matter (Hold).
type hostNode struct {
	host *vmm.Host
	addr netsim.Addr
	// ep is addr resolved.
	ep *netsim.Endpoint

	mrx *multicast.Receiver

	// residents holds every resident replica's wiring, by guest id: an
	// ingress stream's packet names only its guest.
	residents map[string]*replicaWiring
}

// everyBeacon is New's Cluster.everyReport; only export_test.go sets it.
var everyBeacon bool

// dom0Links is the link table a Dom0 starts with: a few residents, each
// with two peers and an egress node, and the peers that came and went.
const dom0Links = 16

// New creates a cluster.
func New(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("%w: %d hosts", ErrCluster, cfg.Hosts)
	}
	if err := cfg.VMM.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: %d shards", ErrCluster, cfg.Shards)
	}
	if cfg.Shards > cfg.Hosts {
		cfg.Shards = cfg.Hosts // extra shards would only idle
	}
	// The control loop and the shard loops exist for every shard count —
	// including 1 — so the coordinator's window grid, and with it the
	// schedule, is a pure function of the topology, never of Shards.
	loop := sim.NewLoop()
	src := sim.NewSource(cfg.Seed)
	net, err := netsim.New(loop, src.Stream("fabric"), cfg.CloudLink)
	if err != nil {
		return nil, err
	}
	shardLoops := make([]*sim.Loop, cfg.Shards)
	for k := range shardLoops {
		shardLoops[k] = sim.NewLoop()
	}
	if err := net.SetShards(shardLoops); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:         cfg,
		loop:        loop,
		shardLoops:  shardLoops,
		src:         src,
		net:         net,
		guests:      make(map[string]*Guest),
		replayLen:   metrics.NewHistogram(replayLenBuckets),
		everyReport: everyBeacon,
	}
	c.coord = sim.NewCoordinator(loop, shardLoops, net.Lookahead, net.Exchange)
	c.coord.OnWindow(net.Offer)
	c.coord.SetParallel(cfg.Shards > 1)
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("host%d", i)
		hostLoop := shardLoops[c.shardOf(i)]
		clock := sim.NewClock(hostOffset[i%len(hostOffset)], hostDrift[i%len(hostDrift)])
		h, err := vmm.NewHost(name, hostLoop, src.Stream("host:"+name), clock, cfg.VMM)
		if err != nil {
			return nil, err
		}
		c.hosts = append(c.hosts, h)
		hn := &hostNode{
			host:      h,
			addr:      netsim.Addr("dom0:" + name),
			residents: make(map[string]*replicaWiring),
		}
		if err := net.AssignShard(hn.addr, c.shardOf(i)); err != nil {
			return nil, err
		}
		hn.ep = net.Endpoint(hn.addr)
		// A Dom0 links to its residents' peers and egress nodes.
		hn.ep.ReserveLinks(dom0Links)
		mrx, err := multicast.NewReceiver(net, hostLoop, multicast.ReceiverConfig{
			Addr:   hn.addr,
			OnData: hn.onMulticastData,
		})
		if err != nil {
			return nil, err
		}
		hn.mrx = mrx
		if err := net.Attach(hn); err != nil {
			return nil, err
		}
		c.hostNodes = append(c.hostNodes, hn)
	}
	// A guest's edge lives on its home shard (placeEdge); clients live on
	// shard 0.
	if c.ingress, err = gateway.NewIngress(net, shardLoops[0], "ingress"); err != nil {
		return nil, err
	}
	// Deploy announces each guest's group size; 3 serves only a guest whose
	// copies reach the front door unannounced.
	if c.egress, err = gateway.NewEgress(net, shardLoops[0], "egress", 3); err != nil {
		return nil, err
	}
	if err := net.SetAccess(c.egress.Addr(), c.tunnel()); err != nil {
		return nil, err
	}
	return c, nil
}

// tunnel is the egress nodes' access link. Each replica's output packets are
// "tunneled ... to the egress node over TCP" (Sec. VI): a reliable FIFO leg,
// the cloud link without loss — TCP's retransmission is abstracted away.
func (c *Cluster) tunnel() netsim.LinkConfig {
	t := c.cfg.CloudLink
	t.LossProb = 0
	return t
}

// Loop exposes the control loop: drivers and control-plane code schedule
// here, and its events run at coordinator barriers.
func (c *Cluster) Loop() *sim.Loop { return c.loop }

// Coordinator exposes the conservative-lookahead coordinator driving the
// control loop and the fabric shards (benchmarks read FiredTotal; tests
// toggle SetParallel).
func (c *Cluster) Coordinator() *sim.Coordinator { return c.coord }

// shardOf is machine i's fabric shard: the machines split into K contiguous
// blocks. The pool picks the least-loaded machines, lowest index first, so
// a guest's replicas sit on neighbouring machines and their pairwise
// traffic (pacing beacons, proposals) stays on one shard instead of
// crossing a barrier.
func (c *Cluster) shardOf(i int) int { return i * len(c.shardLoops) / c.cfg.Hosts }

// Net exposes the fabric.
func (c *Cluster) Net() *netsim.Network { return c.net }

// Source exposes the seeded stream factory.
func (c *Cluster) Source() *sim.Source { return c.src }

// Host returns machine i.
func (c *Cluster) Host(i int) *vmm.Host { return c.hosts[i] }

// Hosts returns the machine count.
func (c *Cluster) Hosts() int { return len(c.hosts) }

// Egress returns the egress node. Baseline guests send past it.
func (c *Cluster) Egress() *gateway.Egress { return c.egress }

// Ingress returns the ingress node. Baseline guests are reached past it.
func (c *Cluster) Ingress() *gateway.Ingress { return c.ingress }

// Guest returns a deployed guest by id.
func (c *Cluster) Guest(id string) (*Guest, bool) {
	g, ok := c.guests[id]
	return g, ok
}

// Deploy places a guest, and hostIdx picks its VMM and group size: one host
// runs it alone under the baseline VMM, reached at its service address
// straight off the fabric; an odd number (at least 3) of distinct hosts runs
// it under StopWatch with that many replicas, behind the gateways. Any other
// count is refused. factory builds one app instance per replica (replicas
// must not share mutable state).
func (c *Cluster) Deploy(id string, hostIdx []int, factory func() guest.App) (*Guest, error) {
	if id == "" || factory == nil {
		return nil, fmt.Errorf("%w: Deploy needs id and app factory", ErrCluster)
	}
	if _, dup := c.guests[id]; dup {
		return nil, fmt.Errorf("%w: guest %q already deployed", ErrCluster, id)
	}
	for _, i := range hostIdx {
		if i < 0 || i >= len(c.hosts) {
			return nil, fmt.Errorf("%w: host index %d out of range", ErrCluster, i)
		}
		if c.hosts[i].Failed() {
			return nil, &HostFailedError{Host: i}
		}
	}
	switch n := len(hostIdx); {
	case n == 1:
		return c.deployBaseline(id, hostIdx, factory)
	case n < 3 || n%2 == 0:
		return nil, fmt.Errorf("%w: guest needs one host or an odd number of at least 3, got %d", ErrCluster, n)
	}
	return c.deployStopWatch(id, hostIdx, factory)
}

func (c *Cluster) deployBaseline(id string, hostIdx []int, factory func() guest.App) (*Guest, error) {
	app := factory()
	h := c.hosts[hostIdx[0]]
	rt, err := vmm.NewBaselineRuntime(h, id, app)
	if err != nil {
		return nil, err
	}
	svc := gateway.ServiceAddr(id)
	// The baseline guest's service endpoint feeds its runtime directly, so
	// it must live on the runtime's host shard.
	if err := c.net.AssignShard(svc, c.shardOf(hostIdx[0])); err != nil {
		return nil, err
	}
	svcEP := c.net.Endpoint(svc)
	rt.OnSend = vmm.SendSinkFunc(func(a guest.IOAction) {
		// The Dom0 output-path delay, as GuestSend's.
		c.net.SendAfter(c.net.AllocTo(svcEP, c.net.Endpoint(a.Dst), a.Size, "guest:data", a.Data), vmm.IOBaseDelay)
	})
	if err := c.net.Attach(&netsim.FuncNode{Addr: svc, Fn: func(p *netsim.Packet) {
		rt.HandleInbound(guest.Payload{Src: p.Src, Size: p.Size, Data: p.Payload})
	}}); err != nil {
		return nil, err
	}
	g := &Guest{ID: id, Baseline: rt, baselineHost: hostIdx[0], baselineApp: app}
	c.guests[id] = g
	if c.started {
		c.startGuest(g)
	}
	return g, nil
}

func (c *Cluster) deployStopWatch(id string, hostIdx []int, factory func() guest.App) (*Guest, error) {
	for k, i := range hostIdx {
		for _, j := range hostIdx[:k] {
			if i == j {
				return nil, fmt.Errorf("%w: replica hosts must be distinct", ErrCluster)
			}
		}
	}
	// Boot times: each replica host's clock read now; the virtual clock
	// start is their median (Sec. IV-A). The Dom0s are the ingress group.
	boots, dom0s := make([]sim.Time, len(hostIdx)), make([]netsim.Addr, len(hostIdx))
	for k, i := range hostIdx {
		boots[k] = c.hosts[i].Clock().Read(c.loop.Now())
		dom0s[k] = c.hostNodes[i].addr
	}
	eg, err := c.placeEdge(id, hostIdx[0])
	if err != nil {
		return nil, err
	}
	if err := c.egress.RegisterGuest(id, len(hostIdx)); err != nil {
		return nil, err
	}
	g := &Guest{
		ID:       id,
		factory:  factory,
		boots:    boots,
		journal:  vmm.NewJournal(),
		replicas: make([]*replicaWiring, len(hostIdx)),
		egress:   eg,
	}
	for k, i := range hostIdx {
		if err := c.wireReplica(g, k, i, nil); err != nil {
			return nil, c.unwire(g, err)
		}
	}
	if err := c.ingress.RegisterGuest(id, dom0s); err != nil {
		return nil, c.unwire(g, err)
	}
	if err := c.reconcileGroups(g); err != nil {
		_ = c.ingress.UnregisterGuest(id)
		return nil, c.unwire(g, err)
	}
	c.guests[id] = g
	if c.started {
		c.startGuest(g)
	}
	return g, nil
}

// placeEdge puts guest id's edge on its home shard, its first replica's
// machine's, at the id's first deployment; the gateways put their nodes
// beside its service address. A later deployment keeps that home, since
// links cache their destination's shard: it may cross a shard, but never
// races. A service address a client sent to first keeps its shard. It returns
// the guest's egress node, on the tunnel.
func (c *Cluster) placeEdge(id string, first int) (*netsim.Endpoint, error) {
	eg, svc := c.net.Endpoint(c.egress.GuestAddr(id)), c.net.Endpoint(gateway.ServiceAddr(id))
	if _, placed := eg.Home(); placed {
		return eg, nil
	}
	home, placed := svc.Home()
	if !placed {
		home = c.shardOf(first)
	}
	// Neither is refused: svc keeps the shard it has, and eg is unplaced.
	_ = c.net.AssignShard(svc.Addr(), home)
	_ = c.net.AssignShard(eg.Addr(), home)
	return eg, c.net.SetAccess(eg.Addr(), c.tunnel())
}

// unwire releases the slots a failed deployment of g already wired and
// returns err, so the id stays deployable: no runtime stays registered on
// its host and no Dom0 keeps the id resident.
func (c *Cluster) unwire(g *Guest, err error) error {
	for _, w := range g.replicas {
		if w != nil {
			c.releaseReplicaWiring(g.ID, w)
		}
	}
	return err
}

// wireReplica builds and wires replica slot k of guest g on the given
// host. With rt == nil a fresh runtime is created (initial deployment);
// otherwise the caller supplies a reconstructed replacement runtime. Peer
// lists are left to reconcileGroups.
func (c *Cluster) wireReplica(g *Guest, k, hostIdx int, rt *vmm.Runtime) error {
	hn := c.hostNodes[hostIdx]
	id := g.ID
	var app guest.App
	if rt == nil {
		app = g.factory()
		var err error
		rt, err = vmm.NewRuntime(c.hosts[hostIdx], id, app, g.boots)
		if err != nil {
			return err
		}
	} else {
		app = rt.VM().App()
	}
	nd, err := vmm.NewNetDevice(rt, len(g.replicas))
	if err != nil {
		return err
	}
	w := &replicaWiring{
		c:        c,
		hn:       hn,
		gid:      id,
		hostIdx:  hostIdx,
		hostName: c.hosts[hostIdx].Name(),
		rt:       rt,
		nd:       nd,
		app:      app,
		egress:   g.egress,
		out:      seqwin.New[sentProp](1),
		due:      sim.Never,
	}
	// Proposal exchange, journal, pacing and egress tunnelling all wire to
	// the replicaWiring itself (see its sink methods above) — no closures.
	nd.SendProposal = w
	// Journal every resolved delivery — the determinism log replica
	// replacement replays (identical at every replica; first write wins).
	nd.OnResolve = g.journal
	rt.OnPace = w
	rt.OnSend = w
	rt.Held = w
	// Checkpointed journal (replay bounded by the checkpoint interval
	// instead of the guest's lifetime) — on when configured and the app
	// can snapshot.
	if c.cfg.VMM.CheckpointInstr > 0 && rt.VM().CanSnapshot() {
		if err := rt.EnableCheckpoints(g.journal, c.cfg.VMM.CheckpointInstr); err != nil {
			return err
		}
	}
	// Optional Sec. IV-A epoch re-synchronization.
	if c.cfg.VMM.EpochInstr > 0 {
		// Samples ride PaceReport's beacons.
		ec, err := vmm.NewEpochCoordinator(rt, c.cfg.VMM.EpochInstr)
		if err != nil {
			return err
		}
		// Journal each applied adjustment's star so replacement replay
		// re-fits the slope at the same boundaries (first write wins).
		ec.OnAdjust = g.journal.RecordEpochStar
		w.ec = ec
	}
	hn.residents[id] = w
	g.replicas[k] = w
	return nil
}

// reconcileGroups recomputes guest g's whole group configuration from the
// current liveness of its replicas' machines (vmm.Host.Failed): every live
// replica's peer links (pacing and proposals) and group view (under a
// freshly bumped view number, installed in all live members within this
// one simulated instant by vmm.Runtime.SetView), plus the ingress replication
// group and the egress's per-guest live copy count (so a degraded guest's
// output forwards at its live group's median copy — the sole copy for a
// single survivor). Deployment, replica replacement and dead-machine
// reconfiguration all go through it, so a replacement that overlaps an
// unevacuated failure cannot resurrect a dead member into the group.
func (c *Cluster) reconcileGroups(g *Guest) error {
	// The live-set slices are cluster-owned scratch: every consumer below
	// (group views, ingress replication) copies what it keeps.
	liveNames := c.scratchNames[:0]
	liveDom0s := c.scratchAddrs[:0]
	for _, w := range g.replicas {
		if c.hosts[w.hostIdx].Failed() {
			continue
		}
		liveNames = append(liveNames, w.hostName)
		liveDom0s = append(liveDom0s, w.hn.addr)
	}
	c.scratchNames = liveNames[:0]
	c.scratchAddrs = liveDom0s[:0]
	if len(liveDom0s) == 0 {
		return fmt.Errorf("%w: guest %q has no live replicas", ErrCluster, g.ID)
	}
	g.view++
	// Every live replica's links first, from counts read before the
	// re-proposals below: a link to a staying peer keeps its state, one to a
	// new peer starts in sync (peerLink), and a sole survivor has none, so
	// no proposal or beacon reaches dead or repaired machines. A departed
	// link's held beacon goes with it: its origin is outside the view, and
	// its ack retires nothing a staying link's next ack does not.
	for _, w := range g.replicas {
		if c.hosts[w.hostIdx].Failed() {
			continue
		}
		old := w.links
		w.links = make([]peerLink, 0, len(g.replicas)-1)
		for _, p := range g.replicas {
			if p == w || c.hosts[p.hostIdx].Failed() {
				continue
			}
			l := peerLink{peer: p, next: p.sent + 1, acked: w.sent}
			for _, o := range old {
				if o.peer == p {
					l = o
				}
			}
			w.links = append(w.links, l)
		}
	}
	// Install the view last: it drops departed members' pacing progress,
	// re-proposes pending sequences over the fresh links and unwedges an
	// epoch barrier waiting on a dead member's sample.
	for _, w := range g.replicas {
		if !c.hosts[w.hostIdx].Failed() {
			w.rt.SetView(g.view, liveNames)
		}
	}
	if err := c.egress.SetLiveReplicas(g.ID, len(liveDom0s)); err != nil {
		return err
	}
	return c.ingress.UpdateGroup(g.ID, liveDom0s)
}

// startGuest boots one guest's runtimes.
func (c *Cluster) startGuest(g *Guest) {
	if g.Baseline != nil {
		g.Baseline.Start()
	}
	for _, w := range g.replicas {
		w.rt.Start()
	}
}

// Start boots all deployed guests, in guest-id order — iteration order is
// observable (co-hosted runtimes draw from their host's seeded stream as
// they boot), and a map walk here would make per-run timing diverge.
// Guests deployed after Start (online admissions) boot at deployment time.
func (c *Cluster) Start() {
	c.started = true
	for _, id := range c.GuestIDs() {
		c.startGuest(c.guests[id])
	}
}

// Run advances the simulation to the given time: the coordinator interleaves
// conservative-lookahead windows on the shard loops with control-loop
// barriers, sequentially or on one goroutine per shard (Coordinator).
func (c *Cluster) Run(until sim.Time) error {
	return c.coord.RunUntil(until)
}

// Stop halts all guests (drains idle spinning so the loop can quiesce), in
// guest-id order for the same determinism reason as Start.
func (c *Cluster) Stop() {
	for _, id := range c.GuestIDs() {
		g := c.guests[id]
		if g.Baseline != nil {
			g.Baseline.Stop()
		}
		for _, w := range g.replicas {
			w.rt.Stop()
		}
	}
}

// NewClient attaches a transport client at addr, on the configured client
// link: its access link, which its links to and from every guest take. An
// address that already has a client, or has carried traffic, is refused.
func (c *Cluster) NewClient(addr netsim.Addr) (*transport.Client, error) {
	if err := c.net.SetAccess(addr, clientLink); err != nil {
		return nil, fmt.Errorf("%w: client %q: %v", ErrCluster, addr, err)
	}
	return transport.NewClient(c.net, c.shardLoops[0], addr)
}

// ServiceAddr re-exports the guest public address helper.
func ServiceAddr(guestID string) netsim.Addr { return gateway.ServiceAddr(guestID) }

var _ netsim.Holder = (*hostNode)(nil)

// Address implements netsim.Node.
func (hn *hostNode) Address() netsim.Addr { return hn.addr }

// Deliver implements netsim.Node: the ingress streams' multicast, and peer
// proposals and pacing beacons for a resident replica, each handed to the
// wiring it names. Both come from a current peer on one FIFO link, or count
// for nothing: one still in flight when its guest or its sender left the
// group finds a released wiring, or no link and an origin outside the view.
// A beacon first has the wiring pull those held before it (Pull).
func (hn *hostNode) Deliver(p *netsim.Packet) {
	if hn.host.Failed() { // a dead machine's fabric endpoint is silent
		return
	}
	b := &p.Body
	if b.Kind != netsim.BodyProp && b.Kind != netsim.BodyPace {
		hn.mrx.Handle(p)
		return
	}
	w, _ := p.Payload.(*replicaWiring)
	from, _ := b.Data.(*replicaWiring)
	if w == nil || w.released {
		return
	}
	var l *peerLink
	for i := range w.links {
		if w.links[i].peer == from {
			l = &w.links[i]
		}
	}
	if b.Kind == netsim.BodyProp {
		// A resend of a proposal already here stops before the device.
		if l == nil || b.StreamSeq < l.next {
			return
		}
		if b.StreamSeq == l.next {
			l.next++
		}
		w.nd.HandlePeerProposal(b.Origin, b.View, b.Seq, b.Virt)
		return
	}
	// A link holds one beacon, so one in flight behind it is an event: the
	// older progress must not land after this one's.
	w.Pull()
	w.rt.OnPeerVirt(b.Origin, b.Virt)
	if l != nil {
		w.onAck(l, b.StreamSeq)
	}
	// Under epochs it carries the peer's latest sample as Epoch = index + 1;
	// a beacon with none (Epoch 0) reads as stale.
	if w.ec != nil {
		w.ec.OnPeerSample(b.Origin, b.Epoch-1, b.Sample)
	}
}

// Hold implements netsim.Holder: a pacing beacon waits on its link, with no
// event, when its arrival would change only the peer's progress and its ack
// (vmm.HeldReports). It stays an event when the receiving replica is paused
// or has no peer report yet (vmm.Runtime.Defers), runs epochs (the sample it
// carries is read at arrival), or would find a proposal overdue for resend
// by then; and when its link is gone or still holds one that has not
// arrived. A dead machine's or a released replica's wiring may hold one: the
// cluster never pulls it again (ReviveMachine refuses while residents
// remain), so what it holds is read no more than what Deliver drops.
func (hn *hostNode) Hold(p *netsim.Packet, a netsim.Arrival) bool {
	b := &p.Body
	w, _ := p.Payload.(*replicaWiring)
	if w == nil || w.ec != nil || w.c.everyReport {
		return false
	}
	var l *peerLink
	for i := range w.links {
		if w.links[i].peer == b.Data {
			l = &w.links[i]
		}
	}
	if l == nil {
		return false
	}
	if l.holding {
		w.Pull() // frees the link: fewer events only (bench gate, fleet-ops)
	}
	if l.holding || !w.rt.Defers() || w.overdueBy(l, b.StreamSeq, a.When) {
		return false
	}
	l.held, l.holding = heldBeacon{at: a, virt: b.Virt, ack: b.StreamSeq}, true
	w.due = min(w.due, a.When)
	return true
}

// Unhold implements netsim.Holder.
func (hn *hostNode) Unhold() {
	for _, w := range hn.residents {
		w.Unhold()
	}
}

// onMulticastData hands an ingress stream's packet ("ingress/<guest>") to
// the resident replica's device model.
func (hn *hostNode) onMulticastData(_ netsim.Addr, seq uint64, _ string, body netsim.PacketBody) {
	if w, ok := hn.residents[body.GuestID]; ok {
		w.nd.HandleInbound(seq, guest.Payload{Src: body.ClientSrc, Size: body.Size, Data: body.Data})
	}
}
