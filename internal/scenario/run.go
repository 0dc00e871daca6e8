// The interpreter: builds a cluster + control plane from the Fleet,
// schedules the event script on the simulation loop, drives traffic, and
// hands the run to assert.go. Every lifecycle mutation is a
// ControlPlane.Apply; every observation goes through Watch, the op log,
// the pool's read API and the metrics registry. The only exception is the
// netsim fault vocabulary (inject-loss / partition / heal), reached
// through Cluster.Net.
package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"

	"stopwatch"
)

// Options configures one scenario run.
type Options struct {
	// Seed overrides the scenario's first seed (0 = use the scenario's). At
	// a seed the file does not declare, its assertions are not checked: only
	// its invariants and the runner's own audits are.
	Seed uint64
	// Shards overrides the fleet's shard count (0 = use the fleet's). The
	// op-log digest is identical for every value.
	Shards int
	// Out, when non-nil, receives a narration of the op stream.
	Out io.Writer
	// DisableReconcile turns off the pre-view-commit survivor reconcile
	// round (failure-injection experiments: demonstrate the divergence the
	// round exists to prevent).
	DisableReconcile bool
}

// Result is one scenario run's outcome.
type Result struct {
	Name   string
	Seed   uint64
	Shards int
	// Ops is the op-log length.
	Ops int
	// Digest is the op-log digest ("%016x" fnv-64a over the formatted
	// log); Pinned is the scenario's expected digest for this seed ("" =
	// unpinned).
	Digest string
	Pinned string
	// Stats is FoldOpStats over the log.
	Stats stopwatch.ControlPlaneStats
	// Metrics is the end-of-run registry snapshot as canonical JSON: both
	// planes' families, byte-identical across runs with the same seed and
	// for every shard count.
	Metrics string
	// Failures lists every assertion or runtime defect (empty = pass).
	Failures []string
}

// Passed reports whether the run finished with no failures.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// Run validates and executes a scenario under one seed.
func Run(sc *Scenario, opt Options) (*Result, error) {
	r, err := start(sc, opt)
	if err != nil {
		return nil, err
	}
	return r.run()
}

// start validates the scenario and builds its fleet, traffic, event script
// and generators, ready to run.
func start(sc *Scenario, opt Options) (*runner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	seed := opt.Seed
	if seed == 0 {
		seed = sc.Seeds[0]
	}
	shards := opt.Shards
	if shards == 0 {
		shards = sc.Fleet.Shards
	}
	r := &runner{
		sc:           sc,
		opt:          opt,
		seed:         seed,
		shards:       shards,
		totals:       instanceTotals(sc),
		nextIdx:      map[string]int{},
		evictedCkpts: map[string]int{},
		killTimes:    map[int][]stopwatch.Time{},
		repairAfter:  map[int]stopwatch.Time{},
	}
	if err := r.build(); err != nil {
		return nil, err
	}
	r.wire()
	return r, nil
}

// run executes the built scenario to its end and evaluates it.
func (r *runner) run() (*Result, error) {
	if err := r.c.Run(stopwatch.Millis(float64(r.sc.DurationMS))); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

type runner struct {
	sc     *Scenario
	opt    Options
	seed   uint64
	shards int

	c   *stopwatch.Cluster
	cp  *stopwatch.ControlPlane
	reg *stopwatch.MetricsRegistry
	// replies reads what each traffic source got back: the samples of
	// scenario_client_replies{source}.
	replies map[string]func() float64

	// totals/nextIdx name instances per spec ("<name>-<i>", or the bare
	// name for single-instance specs).
	totals  map[string]int
	nextIdx map[string]int

	// evictedCkpts accumulates journal checkpoints of guests that left
	// the cloud (the journal assertion counts them alongside residents).
	evictedCkpts map[string]int

	// killTimes records kill-machine firing instants per machine (the
	// oplog within_ms assertion measures detection latency against them).
	killTimes map[int][]stopwatch.Time
	// repairAfter schedules a RepairOp that long after a machine's
	// evacuation completes.
	repairAfter map[int]stopwatch.Time

	failures []string
}

func (r *runner) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *runner) logf(format string, args ...any) {
	if r.opt.Out != nil {
		fmt.Fprintf(r.opt.Out, format+"\n", args...)
	}
}

// build constructs the cluster, control plane, metrics registry and the
// fabric nodes the traffic models need.
func (r *runner) build() error {
	f := &r.sc.Fleet
	cfg := stopwatch.DefaultClusterConfig()
	cfg.Hosts = f.Machines
	cfg.Seed = r.seed
	cfg.Shards = r.shards
	cfg.VMM.CheckpointInstr = f.CheckpointInstr
	c, err := stopwatch.NewCluster(cfg)
	if err != nil {
		return err
	}
	cp, err := stopwatch.NewControlPlane(c, stopwatch.DefaultControlPlaneConfig(f.Capacity))
	if err != nil {
		return err
	}
	r.c, r.cp = c, cp
	if r.opt.DisableReconcile {
		c.DisableViewReconcile()
	}
	if f.PlannedMigration {
		cp.EnablePlannedMigration()
	}
	if f.StallDetector {
		if err := cp.EnableStallDetector(0); err != nil {
			return err
		}
	}
	// Instrumentation is digest-neutral, so the registry is always on and
	// metric assertions always have data.
	r.reg = stopwatch.NewMetricsRegistry()
	cp.InstrumentMetrics(r.reg)
	c.InstrumentMetrics(r.reg)
	// Fabric endpoints: declared extras, beacon sinks, and the traffic
	// sources (true), attached in sorted order for determinism.
	nodes := map[string]bool{}
	for _, n := range f.Nodes {
		nodes[n] = false
	}
	for i := range f.Guests {
		if sink := f.Guests[i].App.Sink; sink != "" {
			nodes[sink] = false
		}
	}
	for i := range f.Guests {
		switch g := &f.Guests[i]; g.Traffic.Kind {
		case "pings", "probe-stream":
			nodes[g.trafficFrom()] = true
		}
	}
	addrs := make([]string, 0, len(nodes))
	for n := range nodes {
		addrs = append(addrs, n)
	}
	sort.Strings(addrs)
	// What came back to each traffic source — the evidence that client
	// traffic flowed ingress → replicas → egress, for metric assertions.
	r.replies = map[string]func() float64{}
	r.reg.NewGaugeSetFunc("scenario_client_replies",
		"replies a traffic source received: echoed pings, completed downloads, completed NFS operations", "source",
		func(emit func(string, float64)) {
			for source, count := range r.replies {
				emit(source, count())
			}
		})
	for _, n := range addrs {
		// One node lives on one shard, so its counter has one writer.
		var got float64
		if err := c.Net().Attach(&stopwatch.FuncNode{Addr: stopwatch.Addr(n), Fn: func(p *stopwatch.Packet) {
			if p.Kind == "guest:data" {
				got++
			}
		}}); err != nil {
			return err
		}
		if nodes[n] {
			r.replies[n] = func() float64 { return got }
		}
	}
	// One placement audit per completed op, of the guests it touched, keyed
	// off the event stream; finish() audits the whole fleet once. An op that
	// names no guest moved no replica.
	cp.Watch(func(ev stopwatch.OpEvent) {
		if ev.Kind != stopwatch.OpCompleted && ev.Kind != stopwatch.OpFailed {
			return
		}
		if oc, ok := cp.Outcome(ev.Seq); ok && len(oc.Guests) > 0 {
			if err := cp.Verify(oc.Guests...); err != nil {
				r.failf("placement audit after %v: %v", ev.Op, err)
			}
		}
	})
	// Evacuation completions — scripted or detector-chained — classify
	// errors, audit the moved guests, and schedule the repair.
	cp.Watch(func(ev stopwatch.OpEvent) {
		op, ok := ev.Op.(stopwatch.EvacuateOp)
		if !ok || (ev.Kind != stopwatch.OpCompleted && ev.Kind != stopwatch.OpFailed) {
			return
		}
		oc, _ := cp.Outcome(ev.Seq)
		r.evacuationFinished(op.Machine, oc)
	})
	if r.opt.Out != nil {
		cp.Watch(func(ev stopwatch.OpEvent) {
			switch ev.Kind {
			case stopwatch.OpCompleted:
				r.logf("t=%7.3fs  done %v", seconds(ev.At), ev.Op)
			case stopwatch.OpFailed:
				r.logf("t=%7.3fs  FAIL %v: %v", seconds(ev.At), ev.Op, ev.Err)
			}
		})
	}
	return nil
}

func seconds(t stopwatch.Time) float64 { return float64(t) / 1e9 }

// trafficFrom resolves a spec's traffic source address: the run attaches
// its traffic there, and validate refuses loss on a link that ends at a
// transport client.
func (g *GuestSpec) trafficFrom() string {
	if g.Traffic.From != "" {
		return g.Traffic.From
	}
	switch g.Traffic.Kind {
	case "pings":
		return g.Name + "-pinger"
	case "probe-stream":
		return g.Name + "-prober"
	default:
		return g.Name + "-client"
	}
}

// window resolves a spec's traffic window (defaults: 50ms after start to
// one second before the end, clamped to the run).
func (r *runner) window(g *GuestSpec) (start, stop stopwatch.Time) {
	dur := stopwatch.Millis(float64(r.sc.DurationMS))
	start = stopwatch.Millis(50)
	if g.Traffic.StartMS > 0 {
		start = stopwatch.Millis(float64(g.Traffic.StartMS))
	}
	stop = dur - stopwatch.Seconds(1)
	if g.Traffic.StopMS > 0 {
		stop = stopwatch.Millis(float64(g.Traffic.StopMS))
	}
	if stop > dur {
		stop = dur
	}
	if stop < start {
		stop = start
	}
	return start, stop
}

// wire admits the initial guest mix, starts the cluster, and schedules
// traffic and the event script.
func (r *runner) wire() {
	f := &r.sc.Fleet
	for i := range f.Guests {
		r.admitBurst(&f.Guests[i], f.Guests[i].Count)
	}
	r.c.Start()
	for i := range f.Guests {
		r.startSpecTraffic(&f.Guests[i])
	}
	for _, ev := range r.sc.Events {
		ev := ev
		r.c.Loop().At(stopwatch.Millis(float64(ev.AtMS)), "scenario:"+ev.Action, func() { r.exec(ev) })
	}
	for i := range r.sc.Generators {
		r.generate(i, &r.sc.Generators[i])
	}
}

// spec returns the named guest spec (the validator guarantees it exists).
func (r *runner) spec(name string) *GuestSpec {
	for i := range r.sc.Fleet.Guests {
		if g := &r.sc.Fleet.Guests[i]; g.Name == name {
			return g
		}
	}
	return nil
}

// instanceID names instance idx of a spec: the bare spec name when the
// population is a singleton, "<name>-<idx>" otherwise.
func (r *runner) instanceID(spec string, idx int) string {
	if r.totals[spec] == 1 {
		return spec
	}
	return fmt.Sprintf("%s-%d", spec, idx)
}

// instances returns the spec's currently-deployed instance ids, in index
// order.
func (r *runner) instances(spec string) []string {
	var ids []string
	for i := 0; i < r.nextIdx[spec]; i++ {
		id := r.instanceID(spec, i)
		if _, ok := r.c.Guest(id); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// The nfs app kind and nfs-load traffic run the paper's Fig-6 setup: a
// 16-deep server window under five nhfsstone-style client processes.
const (
	nfsWindow    = 16
	nfsProcesses = 5
)

// factory builds the spec's app constructor.
func (r *runner) factory(g *GuestSpec) func() stopwatch.App {
	app := g.App
	switch app.Kind {
	case "beacon":
		period := stopwatch.Virtual(stopwatch.Millis(app.PeriodMS))
		return func() stopwatch.App {
			b := stopwatch.NewBeaconApp(period)
			b.Compute = app.Compute
			b.DiskBytes = app.DiskKB << 10
			b.Sink = stopwatch.Addr(app.Sink)
			b.Echo = app.Echo
			b.Until = stopwatch.Virtual(stopwatch.Millis(float64(app.UntilMS)))
			return b
		}
	case "fileserver":
		cfg := stopwatch.DefaultFileServerConfig()
		if app.Transport == "udp" {
			cfg.Mode = stopwatch.ModeUDP
		}
		return func() stopwatch.App {
			fs, err := stopwatch.NewFileServer(cfg)
			if err != nil {
				panic(err) // config validated statically
			}
			return fs
		}
	case "nfs":
		return func() stopwatch.App {
			srv, err := stopwatch.NewNFSServer(nfsWindow)
			if err != nil {
				panic(err) // constant window
			}
			return srv
		}
	default: // "probe"
		return func() stopwatch.App { return stopwatch.NewProbeApp() }
	}
}

// admitBurst admits count fresh instances of a spec.
func (r *runner) admitBurst(g *GuestSpec, count int) {
	for i := 0; i < count; i++ {
		r.admit(g, nil)
	}
}

// admit admits one fresh instance of a spec, calling admitted (when
// non-nil) once it is placed. A full cloud (ErrNoFeasibleHost) is an
// expected outcome, not a failure.
func (r *runner) admit(g *GuestSpec, admitted func(id string)) {
	idx := r.nextIdx[g.Name]
	r.nextIdx[g.Name]++
	id := r.instanceID(g.Name, idx)
	r.cp.Apply(stopwatch.AdmitOp{GuestID: id, Factory: r.factory(g), Done: func(oc *stopwatch.Outcome) {
		switch {
		case oc.Err == nil:
			if admitted != nil {
				admitted(id)
			}
		case !errors.Is(oc.Err, stopwatch.ErrNoFeasibleHost):
			r.failf("admit %s: %v", id, oc.Err)
		}
	}})
}

// startSpecTraffic launches the spec's traffic model. Pings and fetches
// re-resolve the live instance set every period, so instances admitted or
// evicted mid-run join and leave the load naturally.
func (r *runner) startSpecTraffic(g *GuestSpec) {
	if g.Traffic.Kind == "" {
		return
	}
	start, stop := r.window(g)
	period := stopwatch.Millis(g.Traffic.PeriodMS)
	from := stopwatch.Addr(g.trafficFrom())
	loop := r.c.Loop()
	switch g.Traffic.Kind {
	case "pings":
		var tick func()
		tick = func() {
			if loop.Now() >= stop {
				return
			}
			for _, id := range r.instances(g.Name) {
				r.c.Net().Send(&stopwatch.Packet{Src: from, Dst: stopwatch.GuestAddr(id), Size: 128, Kind: "ping"})
			}
			loop.After(period, "scenario:ping", tick)
		}
		loop.At(start, "scenario:ping", tick)
	case "probe-stream":
		// One deterministic stream per possible instance, keyed by id, so
		// the gap sequence is independent of admission interleaving.
		for i := 0; i < r.totals[g.Name]; i++ {
			id := r.instanceID(g.Name, i)
			ps := stopwatch.NewProbeSource(r.c.Net(), loop, r.c.Source().Stream("scenario:probe:"+id),
				from, stopwatch.GuestAddr(id), period)
			ps.Constant = g.Traffic.Constant
			loop.At(start, "scenario:probe", func() { ps.Start(stop) })
		}
	case "downloads":
		cl, err := r.c.NewClient(from)
		if err != nil {
			r.failf("downloads client %s: %v", from, err)
			return
		}
		dl := stopwatch.NewDownloader(cl)
		r.replies[string(from)] = func() float64 { return float64(len(dl.Latencies())) }
		mode := stopwatch.ModeTCP
		if g.App.Transport == "udp" {
			mode = stopwatch.ModeUDP
		}
		size := g.Traffic.SizeKB << 10
		if size <= 0 {
			size = 64 << 10
		}
		var tick func()
		tick = func() {
			if loop.Now() >= stop {
				return
			}
			for _, id := range r.instances(g.Name) {
				if err := dl.Fetch(stopwatch.GuestAddr(id), mode, size, nil); err != nil {
					r.failf("fetch from %s: %v", id, err)
				}
			}
			loop.After(period, "scenario:fetch", tick)
		}
		loop.At(start, "scenario:fetch", tick)
	case "nfs-load":
		// The validator holds the population to its one instance.
		id := r.instanceID(g.Name, 0)
		cl, err := r.c.NewClient(from)
		if err != nil {
			r.failf("nfs-load client %s: %v", from, err)
			return
		}
		gen, err := stopwatch.NewNFSLoadGen(loop, r.c.Source().Stream("scenario:nfs:"+id), cl, stopwatch.GuestAddr(id),
			stopwatch.PaperNFSMix(), stopwatch.NFSLoadGenConfig{Processes: nfsProcesses, RatePerSec: 1000 / g.Traffic.PeriodMS})
		if err != nil {
			r.failf("nfs-load %s: %v", id, err)
			return
		}
		r.replies[string(from)] = func() float64 { return float64(gen.Completed()) }
		loop.At(start, "scenario:nfs-load", func() { gen.Start(stop) })
	}
}

// exec runs one scripted event. Events fire as loop callbacks, i.e. at
// coordinator barriers — the context where control-plane calls and fabric
// fault injection are safe.
func (r *runner) exec(ev Event) {
	switch ev.Action {
	case "admit":
		r.logf("t=%7.3fs  %s %d x %s", seconds(r.c.Loop().Now()), ev.Action, ev.Count, ev.Guest)
		r.admitBurst(r.spec(ev.Guest), ev.Count)
	case "evict":
		r.evict(ev.Guest, 0)
	case "kill-machine":
		m := ev.Machine
		if ev.Busiest {
			m = 0
			for h := 1; h < r.sc.Fleet.Machines; h++ {
				if len(r.cp.Pool().Residents(h)) > len(r.cp.Pool().Residents(m)) {
					m = h
				}
			}
		}
		r.killMachine(m, ev.Detected, stopwatch.Millis(float64(ev.RepairAfterMS)))
	case "kill-replica":
		r.killReplica(ev.Guest, ev.Slot)
	case "drain":
		r.drain(ev.Machine, 0)
	case "undrain":
		r.undrain(ev.Machine)
	case "migrate":
		r.migrate(ev)
	case "inject-loss", "partition", "heal":
		r.fault(ev)
	}
}

// classify folds an op error into failures, tolerating infeasible packing
// (the guest serves degraded on its live pair — expected under
// saturation).
func (r *runner) classify(what string, err error) {
	if err == nil {
		return
	}
	for _, sub := range unjoin(err) {
		if !errors.Is(sub, stopwatch.ErrNoFeasibleHost) {
			r.failf("%s: %v", what, sub)
		}
	}
}

func unjoin(err error) []error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// auditGuests checks each moved guest's replica agreement right after its
// operation (frozen replicas excluded — a degraded guest still serves in
// lockstep on its live pair).
func (r *runner) auditGuests(ids []string) {
	for _, id := range ids {
		g, ok := r.c.Guest(id)
		if !ok {
			continue
		}
		if _, err := auditLockstep(g, false); err != nil {
			r.failf("lockstep %s: %v", id, err)
		}
	}
}

// evict departs a guest, retrying while its lifecycle is mid-operation.
func (r *runner) evict(id string, tries int) {
	g, ok := r.c.Guest(id)
	if !ok {
		r.failf("evict %s: not deployed", id)
		return
	}
	if _, busy := r.cp.InFlight(id); busy {
		if tries >= 50 {
			r.failf("evict %s: still busy after %d retries", id, tries)
			return
		}
		r.c.Loop().After(stopwatch.Millis(100), "scenario:evict-retry", func() { r.evict(id, tries+1) })
		return
	}
	if _, err := auditLockstep(g, false); err != nil {
		r.failf("lockstep before evict %s: %v", id, err)
	}
	ckpts := g.JournalStats().Checkpoints
	if oc := r.cp.Apply(stopwatch.EvictOp{GuestID: id}); oc.Err != nil {
		r.failf("evict %s: %v", id, oc.Err)
		return
	}
	r.evictedCkpts[id] += ckpts
}

// drain takes a machine out for maintenance; with downFor > 0 its capacity
// returns to the pool that long after the evacuation completes.
func (r *runner) drain(m int, downFor stopwatch.Time) {
	r.cp.Apply(stopwatch.DrainOp{Machine: m, Done: func(oc *stopwatch.Outcome) {
		r.classify(fmt.Sprintf("drain %d", m), oc.Err)
		r.auditGuests(oc.Guests)
		// A rejected drain never took the capacity out.
		if downFor > 0 && !oc.Rejected() {
			r.c.Loop().After(downFor, "scenario:undrain", func() { r.undrain(m) })
		}
	}})
}

func (r *runner) undrain(m int) {
	if oc := r.cp.Apply(stopwatch.UndrainOp{Machine: m}); oc.Err != nil {
		r.failf("undrain %d: %v", m, oc.Err)
	}
}

// killMachine crashes a machine's VMM: detected leaves the FailOp to the
// stall detector, otherwise it is scripted here along with the evacuation.
// With repairAfter > 0 the machine is repaired that long after its
// evacuation completes.
func (r *runner) killMachine(m int, detected bool, repairAfter stopwatch.Time) {
	r.logf("t=%7.3fs  kill machine %d (detected=%v)", seconds(r.c.Loop().Now()), m, detected)
	r.killTimes[m] = append(r.killTimes[m], r.c.Loop().Now())
	if repairAfter > 0 {
		r.repairAfter[m] = repairAfter
	}
	if detected {
		// Data-plane kill only: the stall detector notices the silent VMM,
		// auto-fails the machine and chains the evacuation; the watch
		// subscription picks the outcome up.
		if err := r.c.FailMachine(m); err != nil {
			r.failf("kill machine %d: %v", m, err)
		}
		return
	}
	if oc := r.cp.Apply(stopwatch.FailOp{Machine: m}); oc.Rejected() {
		r.failf("fail machine %d: %v", m, oc.Err)
		return
	}
	if oc := r.cp.Apply(stopwatch.EvacuateOp{Machine: m}); oc.Rejected() {
		r.failf("evacuate machine %d: %v", m, oc.Err)
	}
}

// evacuationFinished is the watch hook for every completed evacuation.
func (r *runner) evacuationFinished(m int, oc *stopwatch.Outcome) {
	r.classify(fmt.Sprintf("evacuate machine %d", m), oc.Err)
	r.auditGuests(oc.Guests)
	delay, ok := r.repairAfter[m]
	if !ok {
		return
	}
	delete(r.repairAfter, m)
	r.c.Loop().After(delay, "scenario:repair", func() {
		// A degraded guest stuck on the machine (infeasible move) keeps it
		// failed; a RepairOp would rightly refuse.
		if len(r.cp.Pool().Residents(m)) > 0 {
			return
		}
		if oc := r.cp.Apply(stopwatch.RepairOp{Machine: m}); oc.Err != nil {
			r.failf("repair machine %d: %v", m, oc.Err)
		}
	})
}

func (r *runner) killReplica(id string, slot int) {
	g, ok := r.c.Guest(id)
	if !ok {
		r.failf("kill-replica %s: not deployed", id)
		return
	}
	if _, busy := r.cp.InFlight(id); busy || len(frozenSlots(g)) > 0 {
		r.failf("kill-replica %s: guest busy or already degraded", id)
		return
	}
	victim := g.Replica(slot)
	deadHost := victim.Host()
	victim.Runtime().Stop() // the crash
	r.cp.Apply(stopwatch.ReplaceOp{GuestID: id, DeadHost: deadHost, Done: func(oc *stopwatch.Outcome) {
		r.classify(fmt.Sprintf("replace %s", id), oc.Err)
	}})
}

func (r *runner) migrate(ev Event) {
	id := ev.Guest
	tri, ok := r.cp.Pool().Triangle(id)
	if !ok {
		r.failf("migrate %s: not placed", id)
		return
	}
	from := tri[0]
	to, _ := strconv.Atoi(ev.To)
	if ev.To == "" || ev.To == "auto" {
		// The lowest-numbered machine the barrier's pinned re-home will
		// accept, asked of the pool itself.
		for to = 0; !r.cp.Pool().CanRehomeTo(id, from, to); to++ {
			if to == r.sc.Fleet.Machines {
				r.failf("migrate %s: no feasible destination", id)
				return
			}
		}
	}
	r.cp.Apply(stopwatch.MigrateOp{GuestID: id, From: from, To: to, Done: func(oc *stopwatch.Outcome) {
		r.classify(fmt.Sprintf("migrate %s %d->%d", id, from, to), oc.Err)
	}})
}

// fault applies a fabric fault event through the netsim injection surface.
func (r *runner) fault(ev Event) {
	a := r.linkAddr(ev.From)
	b := r.linkAddr(ev.ToAddr)
	net := r.c.Net()
	links := [][2]stopwatch.Addr{{a, b}, {b, a}}
	if !ev.Duplex {
		links = links[:1]
	}
	var err error
	for _, l := range links {
		switch ev.Action {
		case "inject-loss":
			err = errors.Join(err, net.InjectLoss(l[0], l[1], ev.Prob))
		case "partition":
			err = errors.Join(err, net.SetPartitioned(l[0], l[1], true))
		case "heal":
			err = errors.Join(err, net.HealLink(l[0], l[1]))
		}
	}
	if err != nil {
		r.failf("%s %s->%s: %v", ev.Action, a, b, err)
	} else {
		r.logf("t=%7.3fs  %s %s->%s", seconds(r.c.Loop().Now()), ev.Action, a, b)
	}
}

// linkAddr resolves a fault endpoint: "machine:N" names the host's Dom0,
// "guest:ID" the guest's public service address, anything else a literal
// fabric address.
func (r *runner) linkAddr(s string) stopwatch.Addr {
	if rest, ok := strings.CutPrefix(s, "machine:"); ok {
		return stopwatch.Addr("dom0:host" + rest)
	}
	if rest, ok := strings.CutPrefix(s, "guest:"); ok {
		return stopwatch.GuestAddr(rest)
	}
	return stopwatch.Addr(s)
}

// frozenSlots returns the slots of g's replicas whose execution is halted
// (crashed, or frozen by an abandoned move); audits exclude them.
func frozenSlots(g *stopwatch.Guest) []int {
	var slots []int
	for _, rep := range g.Replicas() {
		if rep.Runtime().Stopped() {
			slots = append(slots, rep.Slot())
		}
	}
	return slots
}

// auditLockstep checks replica agreement: frozen replicas are excluded
// and flagged as degraded; strict escalates fully-live guests to the
// exact digest+count check.
func auditLockstep(g *stopwatch.Guest, strict bool) (degraded bool, err error) {
	if dead := frozenSlots(g); len(dead) > 0 {
		return true, g.CheckLockstepPrefixExcluding(dead...)
	}
	if strict {
		return false, g.CheckLockstep()
	}
	return false, g.CheckLockstepPrefix()
}

// finish takes the final snapshot, evaluates the assertions and digest pin,
// and assembles the result.
func (r *runner) finish() *Result {
	log := r.cp.Log()
	digest := fnv.New64a()
	_, _ = digest.Write([]byte(stopwatch.FormatOpLog(log)))
	res := &Result{
		Name:    r.sc.Name,
		Seed:    r.seed,
		Shards:  r.shards,
		Ops:     len(log),
		Digest:  fmt.Sprintf("%016x", digest.Sum64()),
		Pinned:  r.sc.Digests[r.seed],
		Stats:   stopwatch.FoldOpStats(log),
		Metrics: r.reg.JSON(),
	}
	// The one whole-fleet placement audit, on every file (there is no check
	// to ask for it); the per-op watch covered each op's own guests.
	if err := r.cp.Verify(); err != nil {
		r.failf("placement assertion: %v", err)
	}
	r.assertAll(log, res)
	if res.Pinned != "" && res.Pinned != res.Digest {
		r.failf("op-log digest %s does not match the pin %s for seed %d", res.Digest, res.Pinned, r.seed)
	}
	r.checkOutputDigests()
	res.Failures = r.failures
	return res
}

// checkOutputDigests compares every live replica of each pinned instance
// against the scenario's per-guest output-digest pin for this seed — the
// data-plane counterpart of the op-log pin.
func (r *runner) checkOutputDigests() {
	pins := r.sc.OutputDigests[r.seed]
	for _, id := range sortedGuests(pins) {
		want := pins[id]
		g, ok := r.c.Guest(id)
		if !ok {
			r.failf("output digest %s: guest not deployed", id)
			continue
		}
		for _, rep := range g.Replicas() {
			if rep.Runtime().Stopped() {
				continue // a frozen replica's output is the degraded prefix
			}
			got := fmt.Sprintf("%016x", rep.Runtime().VM().OutputDigest())
			if got != want {
				r.failf("output digest %s slot %d: %s does not match the pin %s for seed %d",
					id, rep.Slot(), got, want, r.seed)
			}
		}
	}
}
