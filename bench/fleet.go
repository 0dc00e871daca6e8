package main

// One repetition of a fleet workload: build the cloud the plan describes,
// run the plan on the simulated clock, verify every output. The four fleet
// workloads differ only in their spec; this file has no per-workload code.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"stopwatch/internal/apps"
	"stopwatch/internal/controlplane"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/metrics"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
	"stopwatch/internal/vtime"
)

const (
	clientAddr netsim.Addr = "bench-client" // echo requests leave from and return to here
	sinkAddr   netsim.Addr = "bench-sink"   // tenants' self-tick output lands here
)

// echoApp is the benchmark's tenant: the BenchmarkClusterScale pinger (a
// 2 ms compute+send self-tick) that also answers every inbound packet with
// its payload, so a client can time request→reply.
type echoApp struct{ ticks, echoes int64 }

var (
	_ guest.App         = (*echoApp)(nil)
	_ guest.Snapshotter = (*echoApp)(nil)
)

const echoTick = vtime.Virtual(2 * sim.Millisecond)

func (a *echoApp) Boot(ctx guest.Ctx) { ctx.SetTimer(echoTick, "tick") }

func (a *echoApp) OnTimer(ctx guest.Ctx, _ string) {
	a.ticks++
	ctx.Compute(200_000)
	ctx.Send(sinkAddr, 128, a.ticks)
	ctx.SetTimer(echoTick, "tick")
}

func (a *echoApp) OnPacket(ctx guest.Ctx, p guest.Payload) {
	a.echoes++
	ctx.Compute(50_000)
	ctx.Send(p.Src, 128, p.Data)
}

func (a *echoApp) OnDiskDone(guest.Ctx, guest.DiskDone) {}

func (a *echoApp) SnapshotAppend(buf []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(buf, a.ticks), a.echoes)
}

func (a *echoApp) RestoreSnapshot(data []byte) error {
	ticks, n := binary.Varint(data)
	if n <= 0 {
		return errors.New("echo snapshot: bad ticks")
	}
	echoes, m := binary.Varint(data[n:])
	if m <= 0 || n+m != len(data) {
		return errors.New("echo snapshot: bad echoes")
	}
	a.ticks, a.echoes = ticks, echoes
	return nil
}

// factory returns the app constructor for a tenant kind.
func factory(kind tenantKind) func() guest.App {
	switch kind {
	case kindFileTCP, kindFileUDP:
		cfg := apps.DefaultFileServerConfig()
		if kind == kindFileUDP {
			cfg.Mode = apps.ModeUDP
		}
		return func() guest.App {
			fs, err := apps.NewFileServer(cfg)
			if err != nil {
				panic(err) // the default config is valid
			}
			return fs
		}
	case kindNFS:
		return func() guest.App {
			s, err := apps.NewNFSServer(16)
			if err != nil {
				panic(err)
			}
			return s
		}
	default:
		return func() guest.App { return &echoApp{} }
	}
}

// nfsClient is one NFS tenant's client: two connections, the 1x2 RPC slots.
type nfsClient struct {
	cl    *transport.Client
	conns [2]uint64
	rr    int
}

// fileClient is one file server's download client: one transport endpoint
// (the server keys connections by id alone, so a second endpoint's ids would
// collide) running the plan's closed loops side by side. In each loop the
// next fetch is issued think after the previous one completes, while traffic
// is open.
type fileClient struct {
	r       *fleetRun
	tenant  int
	dl      *apps.Downloader
	scripts [][]fetchStep
	steps   []int // fetches issued so far, per loop
	issued  int
}

func (fc *fileClient) fetch(loop int) {
	r, tn := fc.r, &fc.r.p.tenants[fc.tenant]
	step := fc.scripts[loop][fc.steps[loop]%len(fc.scripts[loop])]
	fc.steps[loop]++
	fc.issued++
	mode := apps.ModeTCP
	if tn.kind == kindFileUDP {
		mode = apps.ModeUDP
	}
	// Fetch fails only on an unknown mode.
	_ = fc.dl.Fetch(tn.svc, mode, step.bytes, func(sim.Time) {
		if r.loop0.Now()+step.think < r.p.spec.trafficEnd() {
			r.loop0.After(step.think, "bench:fetch", func() { fc.fetch(loop) })
		}
	})
}

// layerCounts are the per-guest counters, summed over replicas and guests.
type layerCounts struct {
	netInterrupts, divergences, pauses, diskOverruns, replayedRecords int
}

func (lc *layerCounts) add(g *core.Guest) {
	for _, rep := range g.Replicas() {
		st := rep.Runtime().Stats()
		lc.netInterrupts += st.NetDelivered
		lc.divergences += st.Divergences
		lc.pauses += st.Pauses
		lc.diskOverruns += st.DiskOverruns
		lc.replayedRecords += st.ReplayedRecords
	}
}

// fleetRun is one repetition's live state.
type fleetRun struct {
	p     *plan
	c     *core.Cluster
	cp    *controlplane.ControlPlane
	loop0 *sim.Loop // shard 0: clients live here, so requests are issued here
	tr    *tracer   // nil on bare repetitions
	reg   *metrics.Registry

	next  int        // next open-loop request to issue
	done  []sim.Time // completion instant per open-loop request; 0 = outstanding
	nfs   map[int32]*nfsClient
	files []*fileClient

	outcomes         []*controlplane.Outcome // per plan op; nil = none (skipped, or a crash)
	skipped          int                     // plan ops that found no eligible target
	crashes, repairs int
	crashHold        map[int]sim.Time
	undetected       []int          // crashed machines the detector has not failed yet
	byID             map[string]int // tenant index by guest id

	evicted  layerCounts // counters of guests that left before the end
	checks   int         // audits made
	failures int         // audits and follow-up ops that failed
	notes    []string
}

func (r *fleetRun) fail(format string, a ...any) {
	r.failures++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, a...))
	}
}

// buildFleet is the set-up phase: cluster, control plane, initial
// admissions, client wiring, Start. shards > 0 overrides the spec.
func buildFleet(p *plan, shards int, tr *tracer, instrument bool) (*fleetRun, error) {
	s := p.spec
	r := &fleetRun{
		p: p, tr: tr,
		done:      make([]sim.Time, len(p.reqs)),
		nfs:       make(map[int32]*nfsClient),
		outcomes:  make([]*controlplane.Outcome, len(p.ops)),
		crashHold: make(map[int]sim.Time),
		byID:      make(map[string]int, len(p.tenants)),
	}
	for i, tn := range p.tenants {
		r.byID[tn.id] = i
	}

	sp := tr.begin("build")
	cfg := core.DefaultClusterConfig()
	cfg.Hosts = s.hosts
	cfg.Shards = shards
	if cfg.Shards == 0 {
		cfg.Shards = s.shardCount()
	}
	cfg.VMM.CheckpointInstr = s.checkpointInstr
	if s.warmDisk {
		cfg.VMM.DiskSeek, cfg.VMM.DiskJitterMean = sim.Millisecond, 300*sim.Microsecond
	}
	cfg.VMM.DeltaN = vtime.Virtual(fleetDeltaN)
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	cp, err := controlplane.New(c, controlplane.DefaultConfig(s.capacity))
	if err != nil {
		return nil, err
	}
	r.c, r.cp, r.loop0 = c, cp, c.Net().ShardLoop(0)
	if s.migrate {
		cp.EnablePlannedMigration()
	}
	if s.detector {
		if err := cp.EnableStallDetector(0); err != nil {
			return nil, err
		}
		cp.Watch(r.onEvacuated)
	}
	if instrument {
		r.reg = metrics.NewRegistry()
		cp.InstrumentMetrics(r.reg)
		c.InstrumentMetrics(r.reg)
	}
	tr.end(sp)

	sp = tr.begin("admit")
	for i, tn := range p.tenants {
		if tn.admitAt < 0 && tn.evictAt >= 0 {
			if oc := cp.Apply(controlplane.AdmitOp{GuestID: tn.id, Factory: factory(tn.kind)}); oc.Err != nil {
				return nil, fmt.Errorf("set-up admission %d: %w", i, oc.Err)
			}
		}
	}
	for i := range p.ops {
		if p.ops[i].at < 0 { // the saturating admission
			r.exec(i, 0)
		}
	}
	tr.end(sp)

	sp = tr.begin("wire")
	if err := c.Net().Attach(&netsim.FuncNode{Addr: sinkAddr}); err != nil {
		return nil, err
	}
	if err := c.Net().Attach(&netsim.FuncNode{Addr: clientAddr, Fn: func(pkt *netsim.Packet) {
		if id, ok := pkt.Payload.(uint64); ok && id < uint64(len(r.done)) {
			r.done[id] = r.loop0.Now()
		}
	}}); err != nil {
		return nil, err
	}
	for i, tn := range p.tenants {
		if tn.kind == kindEcho || tn.evictAt < 0 {
			continue
		}
		cl, err := c.NewClient(netsim.Addr("client-" + tn.id))
		if err != nil {
			return nil, err
		}
		if tn.kind == kindNFS {
			r.nfs[int32(i)] = &nfsClient{cl: cl}
		} else {
			r.files = append(r.files, &fileClient{r: r, tenant: i, dl: apps.NewDownloader(cl),
				scripts: p.scripts[i], steps: make([]int, len(p.scripts[i]))})
		}
	}
	tr.end(sp)

	sp = tr.begin("start")
	c.Start()
	for i, tn := range p.tenants {
		if nc := r.nfs[int32(i)]; nc != nil {
			for k := range nc.conns {
				nc.conns[k] = nc.cl.Connect(tn.svc, nil)
			}
		}
	}
	for _, fc := range r.files {
		for loop := range fc.scripts {
			r.loop0.At(30*sim.Millisecond, "bench:fetch", func() { fc.fetch(loop) })
		}
	}
	for i := range p.ops {
		if i, at := i, p.ops[i].at; at >= 0 {
			c.Loop().At(at, "bench:op", func() { r.exec(i, 0) })
		}
	}
	r.armNextRequest()
	tr.end(sp)
	return r, nil
}

// Open-loop issue: one pending event on shard 0's loop walks the sorted
// request list, sending everything due at the instant it fires.
func (r *fleetRun) armNextRequest() {
	if r.next < len(r.p.reqs) {
		r.loop0.AtTimer(r.p.reqs[r.next].due, "bench:req", requestTimer, r, nil, 0)
	}
}

func requestTimer(a, _ any, _ uint64) {
	r := a.(*fleetRun)
	for now := r.loop0.Now(); r.next < len(r.p.reqs) && r.p.reqs[r.next].due <= now; r.next++ {
		id, req := r.next, &r.p.reqs[r.next]
		tn := &r.p.tenants[req.tenant]
		if nc := r.nfs[req.tenant]; nc != nil {
			conn := nc.conns[nc.rr%len(nc.conns)]
			nc.rr++
			// Request fails only on an unknown connection id.
			_ = nc.cl.Request(conn, req.nfs, func(transport.Response) { r.done[id] = r.loop0.Now() })
			continue
		}
		net := r.c.Net()
		net.Send(net.AllocPacket(clientAddr, tn.svc, 200, "ping", uint64(id)))
	}
	r.armNextRequest()
}

// frozen reports whether any replica of g has halted guest execution — a
// guest degraded by a move that could not complete.
func frozen(g *core.Guest) (slots []int) {
	for _, rep := range g.Replicas() {
		if rep.Runtime().Stopped() {
			slots = append(slots, rep.Slot())
		}
	}
	return slots
}

// audit checks one guest's replica agreement: prefix lockstep (strict
// lockstep is wrong for a running guest — output counts skew by a few
// packets at any instant) and zero synchrony divergences.
func (r *fleetRun) audit(g *core.Guest) {
	r.checks += 2
	if err := g.CheckLockstepPrefixExcluding(frozen(g)...); err != nil {
		r.fail("lockstep: %v", err)
	}
	if d := g.Divergences(); d != 0 {
		r.fail("guest %s: %d synchrony divergences", g.ID, d)
	}
}

// apply submits one planned op, recording its outcome (and, when traced, a
// span around the call).
func (r *fleetRun) apply(i int, op controlplane.Op) {
	sp := r.tr.begin("apply." + op.Kind().String())
	oc := r.cp.Apply(op)
	r.tr.endApply(sp, oc)
	r.outcomes[i] = oc
}

// exec runs planned op i. Targets that are busy with another lifecycle op
// are retried every 250 sim-ms; an op that never finds an eligible target
// is counted as skipped, not failed.
func (r *fleetRun) exec(i, attempt int) {
	op := &r.p.ops[i]
	retry := func() {
		if attempt >= 12 {
			r.skipped++
			return
		}
		r.c.Loop().After(250*sim.Millisecond, "bench:op", func() { r.exec(i, attempt+1) })
	}
	switch op.kind {
	case opAdmit:
		tn := &r.p.tenants[op.tenant]
		r.apply(i, controlplane.AdmitOp{GuestID: tn.id, Factory: factory(tn.kind)})
	case opEvict:
		id := r.p.tenants[op.tenant].id
		g, ok := r.c.Guest(id)
		if !ok {
			r.fail("evict %s: not resident", id)
			return
		}
		if _, busy := r.cp.InFlight(id); busy {
			retry()
			return
		}
		r.audit(g)
		r.evicted.add(g)
		r.apply(i, controlplane.EvictOp{GuestID: id})
	case opReplace, opMigrate:
		id := r.p.tenants[op.tenant].id
		g, ok := r.c.Guest(id)
		if !ok {
			r.skipped++
			return
		}
		if _, busy := r.cp.InFlight(id); busy || len(frozen(g)) > 0 {
			retry()
			return
		}
		rep := g.Replica(op.slot)
		// A migration names its target when it is submitted and moves onto it
		// a drain window later; a placement decided in between can take the
		// slot or an edge and leave the guest degraded. So a migration starts
		// only when no other operation is in flight, and while one is, other
		// barrier operations wait. An admission cannot wait — its clients
		// are planned — so a migration does not start just before one.
		if migrating, others := r.inFlight(); migrating || r.crashPending() ||
			(op.kind == opMigrate && (others || r.admissionDue(100*sim.Millisecond))) {
			retry()
			return
		}
		if op.kind == opMigrate {
			to, ok := r.migrationTarget(g, rep.Host(), op.machine)
			if !ok {
				r.skipped++
				return
			}
			r.apply(i, controlplane.MigrateOp{GuestID: id, From: rep.Host(), To: to})
			return
		}
		rep.Runtime().Stop() // the replica crash
		r.apply(i, controlplane.ReplaceOp{GuestID: id, DeadHost: rep.Host()})
	case opDrain, opCrash:
		m, ok := r.pickMachine(op.machine, op.kind == opCrash)
		migrating, others := r.inFlight()
		if migrating || r.crashPending() || !ok {
			retry()
			return
		}
		if op.kind == opCrash {
			// Data-plane kill only: the stall detector submits the FailOp and
			// chains the evacuation; onEvacuated schedules the repair. Until
			// the detector has spoken the pool still offers the dead machine,
			// and a replica placed there is born dead: so nothing may be
			// placing when a machine dies, or start to before it is detected.
			if others || r.admissionDue(250*sim.Millisecond) {
				retry()
				return
			}
			r.crashes++
			r.undetected = append(r.undetected, m)
			r.crashHold[m] = op.hold
			if err := r.c.FailMachine(m); err != nil {
				r.fail("crash %d: %v", m, err)
			}
			return
		}
		r.apply(i, controlplane.DrainOp{Machine: m, Done: func(oc *controlplane.Outcome) {
			if oc.Rejected() {
				return
			}
			r.c.Loop().After(op.hold, "bench:undrain", func() {
				if oc := r.cp.Apply(controlplane.UndrainOp{Machine: m}); oc.Err != nil {
					r.fail("undrain %d: %v", m, oc.Err)
				}
			})
		}})
	}
}

// inFlight reports whether a migration, and whether any operation at all,
// is on the log unfinished.
func (r *fleetRun) inFlight() (migrating, others bool) {
	for _, oc := range r.cp.Log() {
		if !oc.Done() {
			others = true
			migrating = migrating || oc.Op.Kind() == controlplane.KindMigrate
		}
	}
	return migrating, others
}

// admissionDue reports whether the plan admits a tenant within the window
// ahead.
func (r *fleetRun) admissionDue(window sim.Time) bool {
	now := r.c.Loop().Now()
	for _, op := range r.p.ops {
		if op.kind == opAdmit && op.at >= now && op.at <= now+window {
			return true
		}
	}
	return false
}

// crashPending reports whether a crashed machine is still waiting for the
// stall detector to fail it.
func (r *fleetRun) crashPending() bool {
	live := r.undetected[:0]
	for _, m := range r.undetected {
		if !r.cp.Failed(m) {
			live = append(live, m)
		}
	}
	r.undetected = live
	return len(live) > 0
}

// pickMachine returns the first machine at or after start (wrapping) that
// is in service, has no resident mid-op, and hosts exactly two guests — so
// that every seed's drains and crashes move the same number of replicas —
// or, failing that, any number. A machine to crash must also host a tenant
// with a second of planned traffic ahead of it: the stall detector only
// notices a dead VMM through proposals that go missing.
func (r *fleetRun) pickMachine(start int, crash bool) (int, bool) {
	pool, now := r.cp.Pool(), r.c.Loop().Now()
	for _, want := range []int{2, 0} {
	next:
		for k := 0; k < r.c.Hosts(); k++ {
			m := (start + k) % r.c.Hosts()
			if pool.Drained(m) || r.cp.Failed(m) || r.c.Host(m).Failed() {
				continue
			}
			residents := pool.Residents(m)
			if len(residents) == 0 || (want > 0 && len(residents) != want) {
				continue
			}
			eligible := !crash
			for _, id := range residents {
				if _, busy := r.cp.InFlight(id); busy {
					continue next
				}
				if tn := r.p.tenants[r.byID[id]]; tn.evictAt == 0 || tn.evictAt-r.p.spec.guard > now+sim.Second {
					eligible = true
				}
			}
			if eligible {
				return m, true
			}
		}
	}
	return 0, false
}

// migrationTarget returns the first machine at or after start (wrapping)
// that can take g's replica from host from: in service, below capacity, and
// sharing no resident with g's two other machines (edge-disjointness).
func (r *fleetRun) migrationTarget(g *core.Guest, from, start int) (int, bool) {
	pool := r.cp.Pool()
	var stay []int
	for _, h := range g.HostIndexes() {
		if h != from {
			stay = append(stay, h)
		}
	}
next:
	for k := 0; k < r.c.Hosts(); k++ {
		m := (start + k) % r.c.Hosts()
		if m == from || m == stay[0] || m == stay[1] ||
			pool.Drained(m) || r.cp.Failed(m) || r.c.Host(m).Failed() || pool.Load(m) >= pool.Capacity() {
			continue
		}
		for _, id := range pool.Residents(m) {
			if tri, ok := pool.Triangle(id); ok && (tri.Contains(stay[0]) || tri.Contains(stay[1])) {
				continue next
			}
		}
		return m, true
	}
	return 0, false
}

// onEvacuated schedules the repair that ends a crash: hold after the
// detector-driven evacuation finishes, the machine rejoins the pool.
func (r *fleetRun) onEvacuated(ev controlplane.Event) {
	op, ok := ev.Op.(controlplane.EvacuateOp)
	if !ok || (ev.Kind != controlplane.OpCompleted && ev.Kind != controlplane.OpFailed) {
		return
	}
	m := op.Machine
	r.c.Loop().After(r.crashHold[m], "bench:repair", func() {
		if oc := r.cp.Apply(controlplane.RepairOp{Machine: m}); oc.Err != nil {
			r.fail("repair %d: %v", m, oc.Err)
			return
		}
		r.repairs++
	})
}

// fleetResult is what one repetition reports. Everything but the host-clock
// fields must be identical in every repetition of the same plan.
type fleetResult struct {
	digest            uint64
	attempted, failed int
	notes             []string

	// Request→reply latency of every completed request, by client kind.
	echoLat, nfsLat, fileLat []sim.Time

	barriers    []sim.Time // pause→resume of every completed replace/migrate
	barrierOps  int
	skipped     int
	clientPkts  uint64 // transport-client packets (sent+received)
	transportOp int    // file + NFS requests completed
	counts      layerCounts
}

// verify audits the finished repetition and folds its outputs.
func (r *fleetRun) verify() *fleetResult {
	res := &fleetResult{skipped: r.skipped}
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		_, _ = h.Write(word[:])
	}

	// Client requests: every one issued must have completed.
	for i, at := range r.done {
		put(uint64(at))
		if at == 0 {
			r.fail("request %d to %s due %v never completed", i, r.p.tenants[r.p.reqs[i].tenant].id, r.p.reqs[i].due)
			continue
		}
		if lat := at - r.p.reqs[i].due; r.nfs[r.p.reqs[i].tenant] != nil {
			res.nfsLat = append(res.nfsLat, lat)
		} else {
			res.echoLat = append(res.echoLat, lat)
		}
	}
	res.attempted += len(r.done)
	res.transportOp = len(res.nfsLat)
	for _, nc := range r.nfs {
		res.clientPkts += nc.cl.PacketsSent() + nc.cl.PacketsReceived()
	}
	for _, fc := range r.files {
		lats := fc.dl.Latencies()
		res.attempted += fc.issued
		if len(lats) != fc.issued {
			r.fail("file client %s: %d of %d fetches completed", r.p.tenants[fc.tenant].id, len(lats), fc.issued)
		}
		for _, l := range lats {
			put(uint64(l))
		}
		res.fileLat = append(res.fileLat, lats...)
		res.clientPkts += fc.dl.Client.PacketsSent() + fc.dl.Client.PacketsReceived()
		res.transportOp += len(lats)
	}

	// Control plane: every planned op completed, or was rejected where the
	// plan expected saturation; nothing else on the log failed either.
	planned := make(map[uint64]*ctlOp)
	for i, oc := range r.outcomes {
		if oc != nil {
			planned[oc.Seq] = &r.p.ops[i]
		}
	}
	log := r.cp.Log()
	for _, oc := range log {
		res.attempted++
		op := planned[oc.Seq]
		switch {
		case !oc.Done():
			r.fail("op %v never completed", oc.Op)
		case oc.Err == nil:
			if k := oc.Op.Kind(); k == controlplane.KindReplace || k == controlplane.KindMigrate {
				pause, _ := oc.PhaseAt(controlplane.PhasePause)
				resume, _ := oc.PhaseAt(controlplane.PhaseResume)
				res.barriers = append(res.barriers, resume-pause)
				res.barrierOps++
			}
		case op != nil && op.mayReject && errors.Is(oc.Err, controlplane.ErrNoFeasibleHost):
		default:
			r.fail("op %v: %v", oc.Op, oc.Err)
		}
	}
	_, _ = h.Write([]byte(controlplane.FormatLog(log)))
	if r.crashes != r.repairs {
		r.fail("%d crashes but %d repairs", r.crashes, r.repairs)
	}

	// End-of-run audits: every resident guest, then the placement.
	res.counts = r.evicted
	for _, id := range r.c.GuestIDs() {
		g, _ := r.c.Guest(id)
		r.audit(g)
		res.counts.add(g)
		_, _ = h.Write([]byte(id))
		for _, rep := range g.Replicas() {
			put(uint64(rep.Runtime().VM().OutputCount()))
			put(rep.Runtime().VM().OutputDigest())
		}
	}
	r.checks++
	if err := r.cp.Verify(); err != nil {
		r.fail("placement: %v", err)
	}
	res.attempted += r.checks
	res.failed, res.notes, res.digest = r.failures, r.notes, h.Sum64()
	return res
}

// fleetWindows is how many equal simulated-time windows a run is cut into.
const fleetWindows = 10

// window advances the cloud over window w of the plan's simulated span.
// Traced, it is a span carrying the deltas of events fired, packets
// delivered and objects allocated.
func (r *fleetRun) window(w int) error {
	until := r.p.spec.simDur * sim.Time(w+1) / fleetWindows
	if r.tr == nil {
		return r.c.Run(until)
	}
	id := r.tr.begin(fmt.Sprintf("run.w%02d", w))
	fired, pkts := r.c.Coordinator().FiredTotal(), r.c.Net().Stats().Delivered
	objs, _, _ := heapCounters()
	r.tr.parent = id
	err := r.c.Run(until)
	r.tr.parent = r.tr.spans[id-1].Parent
	r.tr.end(id)
	objs1, _, _ := heapCounters()
	r.tr.spans[id-1].Counts = map[string]int64{
		"events":  int64(r.c.Coordinator().FiredTotal() - fired),
		"packets": int64(r.c.Net().Stats().Delivered - pkts),
		"mallocs": int64(objs1 - objs),
	}
	return err
}

// fleetRep returns the repetition of workload s on seed: generate the
// plan, build, run, verify. shards > 0 overrides the spec's shard count.
func fleetRep(ht *hostTimer, s *spec, seed uint64, shards int) repetition {
	baseline := baselineEchoMS(seed) // depends on the seed only
	return func(tr *tracer, instrument bool) (*repResult, error) {
		res := &repResult{simS: s.simDur.Seconds()}
		var p *plan
		var r *fleetRun
		err := timeSetup(res, ht, func() (err error) {
			sp := tr.begin("plan")
			p = generate(s, seed)
			tr.end(sp)
			r, err = buildFleet(p, shards, tr, instrument || tr != nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		run := tr.begin("run")
		tr.setParent(run)
		err = timeRun(res, ht, fleetWindows, r.window)
		tr.setParent(0)
		tr.end(run)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("verify")
		fr := r.verify()
		tr.end(sp)
		res.digest, res.attempted, res.failed, res.notes = fr.digest, fr.attempted, fr.failed, fr.notes
		res.sim = r.simMetrics(fr, baseline)
		if r.reg != nil {
			res.layer = r.registryMetrics()
			res.layer["metrics.snapshot_us"] = snapshotUS(r.reg)
		}
		if tr != nil {
			for i, at := range r.done {
				tr.simSpan("request", uint64(i), int64(p.reqs[i].due), int64(at))
			}
		}
		return res, nil
	}
}
