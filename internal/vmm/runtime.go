package vmm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// SendSink consumes a replica's guest output packets (Sec. VI tunnelling).
type SendSink interface {
	GuestSend(a guest.IOAction)
}

// SendSinkFunc adapts a function to SendSink (tests, experiments).
type SendSinkFunc func(a guest.IOAction)

// GuestSend implements SendSink.
func (f SendSinkFunc) GuestSend(a guest.IOAction) { f(a) }

// PaceSink consumes a replica's pacing beacons (Sec. V-A). A beacon carries
// the replica's virtual time as of its last exit and, under epoch
// re-synchronization (Sec. IV-A), the sample s it took at its latest epoch
// boundary: epoch is that boundary's index, or -1 with epochs off and before
// the first boundary. The receiver hands the pair to
// EpochCoordinator.OnPeerSample.
type PaceSink interface {
	PaceReport(v vtime.Virtual, epoch int64, s vtime.EpochSample)
}

// PaceSinkFunc adapts a function to PaceSink (tests, experiments).
type PaceSinkFunc func(v vtime.Virtual, epoch int64, s vtime.EpochSample)

// PaceReport implements PaceSink.
func (f PaceSinkFunc) PaceReport(v vtime.Virtual, epoch int64, s vtime.EpochSample) { f(v, epoch, s) }

// HeldReports is where a replica's pacing reports wait when they arrive
// without an event (core's Dom0 keeps them on its peer links). A report is
// held only while its instant cannot matter: the replica is not paused and
// has a peer maximum (Defers), so its arrival could only raise that
// maximum, and only the pacing row reads it. exit pulls before it walks the
// rows; horizon pulls too, but only so as not to arm an exit that would
// find the row not due. A pause, and a view that leaves no peer report,
// hand the held reports back.
type HeldReports interface {
	// Pull applies, through FoldPeerVirt, each held report whose arrival
	// has passed.
	Pull()
	// Unhold turns each held report whose arrival has not passed back into
	// an arrival event at its place in the arrival order.
	Unhold()
}

// peerProgress is one peer replica's latest pacing report.
type peerProgress struct {
	peer string
	virt vtime.Virtual
}

// netDelivery is a network interrupt scheduled in virtual time.
type netDelivery struct {
	deliverVirt vtime.Virtual
	seq         uint64 // ingress sequence: deterministic tiebreak
	payload     guest.Payload
}

// diskDelivery is a disk interrupt scheduled in virtual time, with the real
// time at which the data transfer actually completes (for overrun checks).
type diskDelivery struct {
	deliverVirt vtime.Virtual
	seq         uint64
	readyReal   sim.Time
	done        guest.DiskDone
}

// noPeers is maxPeer's value while no peer has reported: no lead to bound.
const noPeers = vtime.Virtual(math.MaxInt64)

// RuntimeStats counts StopWatch-runtime events.
type RuntimeStats struct {
	// Divergences counts median delivery times that had already passed the
	// guest's virtual time when resolved (synchrony violations, Sec. V-A
	// footnote 4).
	Divergences int
	// DiskOverruns counts disk interrupts delivered before the simulated
	// data transfer finished (Δd too small).
	DiskOverruns int
	// NetDelivered counts network interrupts injected.
	NetDelivered int
	// Pauses counts pacing pauses ("slowing the fastest replica").
	Pauses int
	// ReplayedSends counts outputs suppressed during replacement replay
	// (the survivors already emitted them).
	ReplayedSends int
	// Checkpoints counts checkpoint captures by this replica (accepted or
	// deduplicated by the journal's first-write-wins rule).
	Checkpoints int
	// ReplayedRecords is the journal suffix length a replacement replay
	// preloaded (0 for live-started replicas) — the bounded-replay metric.
	ReplayedRecords int
	// RestoredInstr is the checkpoint instruction count a replacement
	// restore started from (0: full replay from boot).
	RestoredInstr int64
}

// Runtime hosts one replica of a guest under the StopWatch VMM: it owns the
// replica's virtual clock, PIT, pending interrupt queues and pacing state,
// and drives the guest through the shared exec engine.
type Runtime struct {
	ex     exec
	host   *Host
	cfg    Config
	vm     *guest.VM
	vclock *vtime.Clock
	pit    *vtime.PIT
	tsc    vtime.TSC

	virtLastExit vtime.Virtual

	pendingNet  []netDelivery
	pendingDisk []diskDelivery
	diskSeq     uint64

	// replaying is set while NewReplacementRuntime re-executes the journal:
	// exit is the live one, except that outputs are suppressed and disk
	// requests skip the host's disk model. What depends on live peers —
	// OnSend, pacing, the epoch hook, checkpoints — is not attached yet.
	replaying bool

	// Pacing state: each peer's last progress report and their maximum
	// (noPeers while there are none). A replica has at most a few peers,
	// and exits and the horizon read only the maximum.
	peers   []peerProgress
	maxPeer vtime.Virtual

	// The group view (SetView): its number, and the origins (host names,
	// this replica's own included) believed alive. live is nil until a view
	// is installed; until then every origin counts and the device model
	// resolves at the full group width. A slice, not a map: groups are 3
	// (or 5) wide. The device model nd (registered by NewNetDevice), the
	// epoch barrier and pacing all read it.
	view uint64
	live []string
	nd   *NetDevice

	stats RuntimeStats

	// Wiring (set before Start). OnSend and OnPace are interfaces rather
	// than func fields so the cluster can wire its per-replica state in
	// directly (a pointer into an interface allocates nothing, a closure or
	// bound method per replica does — guest admission is a hot path under
	// churn).
	// OnSend tunnels a guest output toward the egress node.
	OnSend SendSink
	// OnPace reports this replica's virtual progress to its peers.
	OnPace PaceSink
	// Held keeps the peer reports that arrived without an event, nil for
	// none (HeldReports): exit and horizon pull from it, and a pause or a
	// view that leaves no peer report hands its reports back.
	Held HeldReports
	// OnNetDeliver observes each injected network interrupt (experiments).
	OnNetDeliver func(seq uint64, deliverVirt vtime.Virtual, real sim.Time)

	// epoch, set by NewEpochCoordinator, sees each exit (it may hold the
	// replica at an epoch barrier, which pacing must not resume it from).
	epoch *EpochCoordinator

	// Checkpoint capture state (EnableCheckpoints).
	journal   *Journal
	ckEvery   int64
	ckNext    int64
	ckScratch *Checkpoint
}

// NewRuntime builds a replica runtime. bootTimes are the three replica
// hosts' clock readings at deployment; all replicas must receive the same
// slice so their virtual clocks agree.
func NewRuntime(host *Host, guestID string, app guest.App, bootTimes []sim.Time) (*Runtime, error) {
	if host == nil {
		return nil, fmt.Errorf("%w: nil host", ErrVMM)
	}
	cfg := host.Config()
	vc, err := vtime.New(vtime.Config{BootTimes: bootTimes})
	if err != nil {
		return nil, err
	}
	pit, err := vtime.NewPIT(pitHz)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		host:    host,
		cfg:     cfg,
		vclock:  vc,
		pit:     pit,
		tsc:     vtime.TSC{HzGHz: 3.0},
		maxPeer: noPeers,
	}
	// The PIT tick schedule starts at the clock's start value, not at
	// virtual zero, so early guests aren't flooded with catch-up ticks.
	rt.pit.Due(vc.Start())
	rt.virtLastExit = vc.Start()
	vm, err := guest.New(guestID, app, rt)
	if err != nil {
		return nil, err
	}
	rt.vm = vm
	rt.ex = exec{
		host:      host,
		vm:        vm,
		loop:      host.Loop(),
		exitEvery: cfg.ExitEvery,
		vmm:       rt,
	}
	host.register(&rt.ex)
	return rt, nil
}

var _ guest.ClockView = (*Runtime)(nil)

// Now implements guest.ClockView: the guest sees only virtual time.
func (rt *Runtime) Now() vtime.Virtual {
	rt.ex.sync()
	return rt.vclock.At(rt.ex.instr)
}

// TSC implements guest.ClockView from virtual time (Sec. IV-B).
func (rt *Runtime) TSC() uint64 { return rt.tsc.Read(rt.Now()) }

// PITCounter implements guest.ClockView from virtual time (Sec. IV-B).
func (rt *Runtime) PITCounter() uint16 { return rt.pit.Counter(rt.Now()) }

// VM returns the hosted guest, its counters current as of now.
func (rt *Runtime) VM() *guest.VM {
	rt.ex.sync()
	return rt.vm
}

// Host returns the hosting machine.
func (rt *Runtime) Host() *Host { return rt.host }

// Stats returns runtime counters.
func (rt *Runtime) Stats() RuntimeStats { return rt.stats }

// Instr returns the replica's executed branch count.
func (rt *Runtime) Instr() int64 {
	rt.ex.sync()
	return rt.ex.instr
}

// VirtAtLastExit returns the guest's virtual time as of its last VM exit —
// what the device model reads when forming a Δn proposal (Sec. V-B).
func (rt *Runtime) VirtAtLastExit() vtime.Virtual {
	rt.ex.sync()
	return rt.virtLastExit
}

// Start boots the guest and begins execution and pacing.
func (rt *Runtime) Start() {
	rt.ex.start()
	if rt.OnPace != nil {
		rt.paceTick()
	}
}

// Stop halts the replica.
func (rt *Runtime) Stop() { rt.ex.stop() }

// Stopped reports whether the replica's guest execution is halted (crashed,
// or frozen for evacuation); the VMM-side device models stay live.
func (rt *Runtime) Stopped() bool { return rt.ex.stopped }

// Release permanently stops the replica and detaches it from its host's
// scheduler — the teardown path for eviction and replacement, after which
// the runtime costs the host nothing.
func (rt *Runtime) Release() {
	rt.ex.stop()
	rt.host.unregister(&rt.ex)
}

func (rt *Runtime) paceTick() {
	if rt.ex.stopped {
		return
	}
	rt.beacon()
	rt.host.Loop().AfterTimer(PaceInterval, "vmm:pace", paceTimer, rt, nil, 0)
}

// beacon sends one pacing report: the periodic tick, and under epochs the
// boundary exit that takes a sample (which leaves the tick's timer alone).
func (rt *Runtime) beacon() {
	epoch, s := int64(-1), vtime.EpochSample{}
	if rt.epoch != nil {
		epoch, s = rt.epoch.sampled, rt.epoch.mine
	}
	rt.OnPace.PaceReport(rt.VirtAtLastExit(), epoch, s)
}

// paceTimer is the typed pacing-beacon callback (periodic per replica).
func paceTimer(a, _ any, _ uint64) { a.(*Runtime).paceTick() }

// SetView installs the replica's group view: view is the group-
// synchronized number proposals are exchanged under, origins the live
// members. Pacing forgets the progress of every origin outside it (a frozen
// report must not linger in the max-lead comparison) and re-evaluates a
// paced pause if one went; the device model re-proposes its pending
// sequences under the new view; and a barrier waiting on a departed
// member's sample is re-checked, so survivors unwedge deterministically.
// The caller installs the same view in every live member within one
// simulated instant.
// It pulls nothing (a maximum that fell re-arms the exit, and horizon
// pulls), but a view that leaves no peer report hands the held ones back:
// the first report to arrive may pause the replica at once (Defers).
func (rt *Runtime) SetView(view uint64, origins []string) {
	rt.view = view
	rt.live = append(rt.live[:0], origins...)
	n := len(rt.peers)
	rt.peers = slices.DeleteFunc(rt.peers, func(p peerProgress) bool { return !rt.inView(p.peer) })
	if len(rt.peers) < n {
		if len(rt.peers) == 0 && rt.Held != nil {
			rt.Held.Unhold()
		}
		rt.ex.sync()
		rt.remax()
		rt.maybeResume()
	}
	if rt.nd != nil {
		rt.nd.repropose()
	}
	if ec := rt.epoch; ec != nil && ec.waiting && ec.tryAdjust() && !rt.tooFarAhead() {
		rt.ex.resume()
	}
}

// inView reports whether origin counts under the installed view (every
// origin does before one is installed).
func (rt *Runtime) inView(origin string) bool {
	return rt.live == nil || slices.Contains(rt.live, origin)
}

// OnPeerVirt records a peer replica's progress report, arriving now, and
// resumes a paced pause if the gap has closed (never an epoch barrier). A
// report from an origin outside the installed view is ignored: a beacon
// still in flight from a member that left must not pin the pacing maximum.
// The caller has pulled the held reports that arrived before it.
func (rt *Runtime) OnPeerVirt(peer string, v vtime.Virtual) {
	if rt.inView(peer) {
		rt.ex.sync()
		rt.FoldPeerVirt(peer, v)
		rt.maybeResume()
	}
}

// FoldPeerVirt records a held report whose arrival has passed: OnPeerVirt
// at its arrival, less the resume a held report cannot owe (Defers).
func (rt *Runtime) FoldPeerVirt(peer string, v vtime.Virtual) {
	if rt.inView(peer) {
		rt.peers[rt.peerIndex(peer)].virt = v
		rt.remax()
	}
}

// Defers reports whether a peer's report, arriving later, may wait for the
// next read of the pacing state (HeldReports): the replica is not paused
// and has a peer maximum, so the report can only raise it. Within a view no
// origin's reports fall: its link is FIFO, its virtLastExit only grows, and
// SetView forgets an origin that leaves.
func (rt *Runtime) Defers() bool {
	return !rt.ex.paused && rt.maxPeer != noPeers
}

// peerIndex returns peer's place in peers, adding it on first report.
func (rt *Runtime) peerIndex(peer string) int {
	i := 0
	for i < len(rt.peers) && rt.peers[i].peer != peer {
		i++
	}
	if i == len(rt.peers) {
		if rt.peers == nil {
			rt.peers = make([]peerProgress, 0, 2) // a healthy group of three
		}
		rt.peers = append(rt.peers, peerProgress{peer: peer})
	}
	return i
}

// pull has Held apply the reports whose arrival has passed.
func (rt *Runtime) pull() {
	if rt.Held != nil {
		rt.Held.Pull()
	}
}

// remax recomputes the peer maximum. A maximum that appeared or fell brings
// the pacing pause — and with it the exit horizon — nearer.
func (rt *Runtime) remax() {
	was := rt.maxPeer
	rt.maxPeer = noPeers
	for i, p := range rt.peers {
		if i == 0 || p.virt > rt.maxPeer {
			rt.maxPeer = p.virt
		}
	}
	if rt.maxPeer < was {
		rt.ex.rearm()
	}
}

// maybeResume lifts a pacing pause once the lead has closed, unless the
// replica is held at an epoch barrier.
func (rt *Runtime) maybeResume() {
	if rt.ex.paused && !rt.tooFarAhead() && (rt.epoch == nil || !rt.epoch.waiting) {
		rt.ex.resume()
	}
}

// tooFarAhead reports whether this replica leads ALL peers by more than
// MaxLead — i.e. it is the unique fastest and must be slowed (Sec. V-A):
// whether the pacing row is due as of the last exit. It is asked only while
// the replica is paused or runs epochs, so no report is held.
func (rt *Runtime) tooFarAhead() bool {
	var n [clauses]int64
	rt.next(&n)
	return rt.due(clausePace, n[clausePace], rt.virtLastExit)
}

// EnqueueNetDelivery schedules a network interrupt at the median-agreed
// virtual time. A delivery time at or before the replica's current virtual
// time is a synchrony violation and is counted as a divergence; the packet
// is still delivered at the next exit so the scenario can proceed.
func (rt *Runtime) EnqueueNetDelivery(seq uint64, deliverVirt vtime.Virtual, p guest.Payload) {
	rt.ex.sync()
	if deliverVirt <= rt.virtLastExit {
		rt.stats.Divergences++
	}
	q := rt.pendingNet
	if q == nil {
		q = make([]netDelivery, 0, 8) // the packets agreed within one Δn
	}
	i := sort.Search(len(q), func(i int) bool { return deliversBefore(deliverVirt, seq, q[i].deliverVirt, q[i].seq) })
	rt.pendingNet = slices.Insert(q, i, netDelivery{deliverVirt, seq, p})
	if i == 0 {
		rt.ex.rearm() // a new earliest delivery can only bring the horizon nearer
	}
}

// requestDisk is invoked at a VM exit when the guest issued a disk op: the
// device model starts the real transfer (replay: it is over, ready now) and
// queues the interrupt at virtual time V+Δd (Sec. V-A), in the (deliverVirt,
// seq) order live execution and replacement replay share, both being exit.
func (rt *Runtime) requestDisk(a guest.IOAction, atVirt vtime.Virtual) {
	ready := rt.host.Loop().Now()
	if !rt.replaying {
		rt.host.ioBegin()
		ready = rt.host.diskService(a.Bytes)
		rt.host.Loop().AtTimer(ready, "vmm:diskdone", ioEndTimer, rt.host, nil, 0)
	}
	rt.diskSeq++
	d := diskDelivery{atVirt + rt.cfg.DeltaD, rt.diskSeq, ready, guest.DiskDone{Tag: a.Tag, Bytes: a.Bytes, Write: a.Write}}
	q := rt.pendingDisk
	i := sort.Search(len(q), func(i int) bool { return deliversBefore(d.deliverVirt, d.seq, q[i].deliverVirt, q[i].seq) })
	rt.pendingDisk = slices.Insert(q, i, d)
}

// The exit clauses, one row each, in the order exit acts on them. A row's
// next is the first point at which it is due: a virtual instant, or an
// instruction count for the checkpoint and epoch rows (countsInstr). A
// row's act changes no later row's next, so one reading serves a walk.
const (
	clauseTimer      = iota // due when a PIT tick fires an app timer; the first exit past a tick counts it
	clauseDeliver           // disk, then network interrupts
	clauseCheckpoint        // before the epoch row's adjustment: the state every replica reproduces
	clauseEpoch             // the barrier, where the walk stops
	clausePace              // the pause, once the lead over the peer maximum exceeds MaxLead
	clauses
)

func countsInstr(c int) bool { return c == clauseCheckpoint || c == clauseEpoch }

// next sets every row's next, math.MaxInt64 for none. The pacing row reads
// the peer maximum as last pulled.
func (rt *Runtime) next(n *[clauses]int64) {
	*n = [clauses]int64{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64}
	if due, ok := rt.vm.NextTimerDue(); ok {
		n[clauseTimer] = int64(max(due, rt.pit.Next()))
	}
	if len(rt.pendingNet) > 0 {
		n[clauseDeliver] = int64(rt.pendingNet[0].deliverVirt)
	}
	if len(rt.pendingDisk) > 0 {
		n[clauseDeliver] = min(n[clauseDeliver], int64(rt.pendingDisk[0].deliverVirt))
	}
	if rt.ckEvery > 0 {
		n[clauseCheckpoint] = rt.ckNext
	}
	if rt.epoch != nil {
		n[clauseEpoch] = rt.epoch.nextBoundary()
	}
	if rt.maxPeer != noPeers {
		n[clausePace] = int64(rt.maxPeer + rt.cfg.MaxLead + 1)
	}
}

// due reports whether a row whose next is n acts at the exit at virt.
func (rt *Runtime) due(c int, n int64, virt vtime.Virtual) bool {
	if countsInstr(c) {
		return n <= rt.ex.instr
	}
	return n <= int64(virt)
}

// act runs row c at the exit at virt, and reports whether the walk stops.
func (rt *Runtime) act(c int, virt vtime.Virtual) bool {
	switch c {
	case clauseTimer: // run only where a tick is due
		rt.vm.DeliverTimerTicks(rt.pit.Due(virt))
	case clauseDeliver:
		rt.deliverDue(virt)
	case clauseCheckpoint:
		rt.captureCheckpoint(virt)
	case clauseEpoch:
		if rt.epoch.onExit() {
			rt.ex.pause()
			return true
		}
	case clausePace:
		rt.stats.Pauses++
		rt.ex.pause()
		if rt.Held != nil {
			rt.Held.Unhold() // a paused replica resumes at a report's arrival
		}
	}
	return false
}

// exit is the guest-caused VM exit handler: the only place interrupts are
// injected (Sec. IV-B / V-B). It takes the I/O instruction that ended the
// chunk, if one did, and walks the rows. exec also runs it at the last
// boundary a sync crosses, with the exit event still armed: there horizon
// promised that no row is due, so one that is panics instead of acting late
// in virtual time. That check pulls nothing: a pull only raises the peer
// maximum, and with it the pacing row's next.
func (rt *Runtime) exit(res guest.StepResult) {
	virt := rt.vclock.At(rt.ex.instr)
	rt.virtLastExit = virt
	if res.IO != nil {
		if !res.IO.IsSend() {
			rt.requestDisk(*res.IO, virt)
		} else if rt.replaying {
			rt.stats.ReplayedSends++
		} else if rt.OnSend != nil {
			rt.OnSend.GuestSend(*res.IO)
		}
	}
	crossed := rt.ex.ev != nil
	if !crossed {
		rt.pull()
	}
	var next [clauses]int64
	rt.next(&next)
	for c := range clauses {
		due := rt.due(c, next[c], virt)
		if due && crossed {
			panic(fmt.Sprintf("vmm: guest %s crossed instr %d with exit clause %d due", rt.vm.ID(), rt.ex.instr, c))
		}
		// The timer row acts at every tick, whether or not one fires an app timer.
		if (due || c == clauseTimer && rt.pit.Next() <= virt) && rt.act(c, virt) {
			return
		}
	}
}

// horizon implements exitHandler: the least of the rows' next, the virtual
// ones through one BoundaryFor, and no earlier than first. Its pull only
// saves the exits a stale peer maximum would arm for nothing (the bench
// gate's sim.events_per_sim_s sees them on cloud-idle).
func (rt *Runtime) horizon(first int64) int64 {
	rt.pull()
	h, v, every := int64(math.MaxInt64), int64(math.MaxInt64), rt.cfg.ExitEvery
	var next [clauses]int64
	rt.next(&next)
	for c, n := range next {
		switch {
		case n == math.MaxInt64:
		case c == rt.ex.late-1: // the test seam: one boundary late
			if !countsInstr(c) {
				n = rt.vclock.BoundaryFor(vtime.Virtual(n), every)
			}
			h = min(h, n+every)
		case countsInstr(c):
			h = min(h, n)
		default:
			v = min(v, n)
		}
	}
	if v != math.MaxInt64 {
		h = min(h, rt.vclock.BoundaryFor(vtime.Virtual(v), every))
	}
	return max(h, first)
}

// deliverDue injects every pending interrupt due at virt. The queues pop
// with slices.Delete — the tail moves down over the head and the vacated
// slot is cleared — so they keep their backing array: q[1:] walks it forward
// and the append that follows reallocates every few deliveries. They are a
// handful of entries deep, and their inserts already shift.
func (rt *Runtime) deliverDue(virt vtime.Virtual) {
	for len(rt.pendingDisk) > 0 || len(rt.pendingNet) > 0 {
		haveDisk := len(rt.pendingDisk) > 0 && rt.pendingDisk[0].deliverVirt <= virt
		haveNet := len(rt.pendingNet) > 0 && rt.pendingNet[0].deliverVirt <= virt
		if !haveDisk && !haveNet {
			return
		}
		// Disk wins ties; otherwise earliest virtual time first.
		if haveDisk && (!haveNet || rt.pendingDisk[0].deliverVirt <= rt.pendingNet[0].deliverVirt) {
			d := rt.pendingDisk[0]
			rt.pendingDisk = slices.Delete(rt.pendingDisk, 0, 1)
			if d.readyReal > rt.host.Loop().Now() {
				rt.stats.DiskOverruns++
			}
			rt.vm.DeliverDisk(d.done)
			continue
		}
		d := rt.pendingNet[0]
		rt.pendingNet = slices.Delete(rt.pendingNet, 0, 1)
		rt.stats.NetDelivered++
		if rt.OnNetDeliver != nil {
			rt.OnNetDeliver(d.seq, d.deliverVirt, rt.host.Loop().Now())
		}
		rt.vm.DeliverPacket(d.payload)
	}
}
