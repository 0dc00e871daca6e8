package main

// Layer drivers: each builds one layer through its public constructor and
// times N calls of the operation an optimisation would touch — ns (and,
// where the claim is "allocation-free", allocations) per op, median of five
// batches after one discarded warm-up batch. They run in the traced pass, as
// spans named for the metric they produce; they do not depend on the
// workload.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"stopwatch/internal/controlplane"
	"stopwatch/internal/core"
	"stopwatch/internal/gateway"
	"stopwatch/internal/guest"
	"stopwatch/internal/metrics"
	"stopwatch/internal/multicast"
	"stopwatch/internal/netsim"
	"stopwatch/internal/placement"
	"stopwatch/internal/scenario"
	"stopwatch/internal/sim"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
)

const batches = 5

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// driverEnv is what a driver measures with: the speed reference every
// batch is scaled by, and the divisor the smoke test shrinks sizes with.
type driverEnv struct {
	ht    *hostTimer
	scale int
}

// n scales a full-size count down for the smoke test.
func (e *driverEnv) n(full int) int { return max(full/e.scale, 1) }

// timeOps reports the median host ns (at reference speed) and allocations
// per call of op.
func (e *driverEnv) timeOps(n int, op func(i int)) (ns, allocs float64) {
	var nsB, alB []float64
	e.ht.resample()
	for b := 0; b <= batches; b++ {
		o0, _, _ := heapCounters()
		_, scaled, _ := e.ht.time(func() error {
			for i := 0; i < n; i++ {
				op(b*n + i)
			}
			return nil
		})
		o1, _, _ := heapCounters()
		if b > 0 {
			nsB = append(nsB, scaled*1e9/float64(n))
			alB = append(alB, float64(o1-o0)/float64(n))
		}
	}
	return summarize(nsB).median, summarize(alB).median
}

// timePair is timeOps for two operations that must alternate (deploy and
// undeploy, admit and evict): each is timed on its own, and both are scaled
// by the batch's speed.
func (e *driverEnv) timePair(n int, first, second func(i int)) (ns1, ns2 float64) {
	var b1, b2 []float64
	e.ht.resample()
	for b := 0; b <= batches; b++ {
		var d1, d2 time.Duration
		raw, scaled, _ := e.ht.time(func() error {
			for i := 0; i < n; i++ {
				t0 := time.Now()
				first(b*n + i)
				t1 := time.Now()
				second(b*n + i)
				d1, d2 = d1+t1.Sub(t0), d2+time.Since(t1)
			}
			return nil
		})
		if b > 0 {
			b1 = append(b1, float64(d1.Nanoseconds())/float64(n)*scaled/raw)
			b2 = append(b2, float64(d2.Nanoseconds())/float64(n)*scaled/raw)
		}
	}
	return summarize(b1).median, summarize(b2).median
}

// idleApp is a guest that never does anything: every chunk is idle spin.
type idleApp struct{}

func (idleApp) Boot(guest.Ctx)                       {}
func (idleApp) OnPacket(guest.Ctx, guest.Payload)    {}
func (idleApp) OnDiskDone(guest.Ctx, guest.DiskDone) {}
func (idleApp) OnTimer(guest.Ctx, string)            {}

// fixedClock is a guest clock that stands still (guest.step_ns only).
type fixedClock struct{}

func (fixedClock) Now() vtime.Virtual { return 0 }
func (fixedClock) TSC() uint64        { return 0 }
func (fixedClock) PITCounter() uint16 { return 0 }

func newFabric(loss float64) (*sim.Loop, *netsim.Network) {
	loop := sim.NewLoop()
	link := core.DefaultClusterConfig().CloudLink
	link.LossProb = loss
	return loop, must1(netsim.New(loop, sim.NewSource(1).Stream("fabric"), link))
}

func newHost(loop *sim.Loop) *vmm.Host {
	return must1(vmm.NewHost("h0", loop, sim.NewSource(1).Stream("host:h0"), sim.NewClock(0, 0), vmm.DefaultConfig()))
}

// pushPopTimer re-arms itself at a random point in the next millisecond, so
// a loop seeded with d of them stays d deep.
func pushPopTimer(a, b any, _ uint64) {
	l, r := a.(*sim.Loop), b.(*sim.FastRand)
	l.AtTimer(l.Now()+1+r.UniformDur(0, sim.Millisecond), "bench:tick", pushPopTimer, l, r, 0)
}

func nopTimer(_, _ any, _ uint64) {}

// layerDriver is one driver: the metrics it emits, and the function that
// measures them.
type layerDriver struct {
	names []string
	run   func(e *driverEnv) []float64
}

var layerDrivers = []layerDriver{
	{[]string{"sim.push_pop_ns.d1e2", "sim.push_pop_ns.d1e3", "sim.push_pop_ns.d1e5"}, func(e *driverEnv) []float64 {
		var out []float64
		for _, depth := range []int{100, 1000, 100000} {
			l, r := sim.NewLoop(), sim.NewSource(1).FastStream("bench-sim")
			for i := 0; i < e.n(depth); i++ {
				pushPopTimer(l, r, 0)
			}
			ns, _ := e.timeOps(e.n(200000), func(int) { l.ProcessNextEvent() })
			out = append(out, ns)
		}
		return out
	}},
	{[]string{"sim.cancel_resched_ns"}, func(e *driverEnv) []float64 {
		// One op: move one pending event, cancel another and arm its successor.
		l, r := sim.NewLoop(), sim.NewSource(1).FastStream("bench-sim")
		evs := make([]*sim.Event, e.n(1000))
		for i := range evs {
			evs[i] = l.AtTimer(r.UniformDur(0, sim.Second), "bench:ev", nopTimer, nil, nil, 0)
		}
		ns, _ := e.timeOps(e.n(200000), func(i int) {
			a, b := (2*i)%len(evs), (2*i+1)%len(evs)
			evs[a] = l.Reschedule(evs[a], r.UniformDur(0, sim.Second))
			l.Cancel(evs[b])
			evs[b] = l.AtTimer(r.UniformDur(0, sim.Second), "bench:ev", nopTimer, nil, nil, 0)
		})
		return []float64{ns}
	}},
	{[]string{"netsim.send_deliver_ns", "netsim.send_deliver_allocs"}, func(e *driverEnv) []float64 {
		loop, net := newFabric(0)
		must(net.Attach(&netsim.FuncNode{Addr: "b"}))
		ns, allocs := e.timeOps(e.n(200000), func(int) {
			net.Send(net.AllocPacket("a", "b", 200, "bench", nil))
			loop.ProcessNextEvent()
		})
		return []float64{ns, allocs}
	}},
	{[]string{"netsim.xshard_send_deliver_ns"}, func(e *driverEnv) []float64 {
		// 32 sends from shard 0, one Exchange, 32 deliveries on shard 1.
		_, net := newFabric(0)
		l0, l1 := sim.NewLoop(), sim.NewLoop()
		must(net.SetShards([]*sim.Loop{l0, l1}))
		must(net.AssignShard("a", 0))
		must(net.AssignShard("b", 1))
		must(net.Attach(&netsim.FuncNode{Addr: "b"}))
		const burst = 32
		ns, _ := e.timeOps(e.n(200000)/burst, func(int) {
			for k := 0; k < burst; k++ {
				net.Send(net.AllocPacket("a", "b", 200, "bench", nil))
			}
			net.Exchange()
			for k := 0; k < burst; k++ {
				l1.ProcessNextEvent()
			}
		})
		return []float64{ns / burst}
	}},
	{[]string{"multicast.inorder_recv_ns", "multicast.lossy_repair_ns"}, func(e *driverEnv) []float64 {
		var out []float64
		for _, loss := range []float64{0, 0.05} {
			loop, net := newFabric(loss)
			group := []netsim.Addr{"r0", "r1", "r2"}
			for _, addr := range group {
				rx := must1(multicast.NewReceiver(net, loop, multicast.ReceiverConfig{
					Addr: addr, OnData: func(netsim.Addr, uint64, string, netsim.PacketBody) {},
				}))
				must(net.Attach(&netsim.FuncNode{Addr: addr, Fn: func(p *netsim.Packet) { rx.Handle(p) }}))
			}
			snd := must1(multicast.NewSender(net, loop, multicast.SenderConfig{Src: "src", Group: group}))
			must(net.Attach(snd))
			ns, _ := e.timeOps(e.n(50000), func(int) {
				snd.Multicast("bench", 64, netsim.PacketBody{})
				must(loop.RunUntil(loop.Now() + sim.Millisecond))
			})
			out = append(out, ns)
		}
		return out
	}},
	{[]string{"vmm.exec_chunk_ns", "vmm.checkpoint_ns"}, func(e *driverEnv) []float64 {
		// ns per VM exit: of an idle guest, and of the tenant app with a
		// checkpoint captured at every exit (a difference against the same
		// app without checkpoints drowns in the noise of two measurements).
		exit := func(app guest.App, checkpoint bool) float64 {
			loop := sim.NewLoop()
			rt := must1(vmm.NewRuntime(newHost(loop), "g", app, []sim.Time{0, 0, 0}))
			if checkpoint {
				must(rt.EnableCheckpoints(vmm.NewJournal(), vmm.DefaultConfig().ExitEvery))
			}
			rt.Start()
			ns, _ := e.timeOps(e.n(200000), func(int) { loop.ProcessNextEvent() })
			return ns
		}
		return []float64{exit(idleApp{}, false), exit(&echoApp{}, true)}
	}},
	{[]string{"vmm.netdev_resolve_ns", "vmm.netdev_resolve_allocs"}, func(e *driverEnv) []float64 {
		// HandleInbound → Dom0 delay → own proposal, two peer proposals →
		// median → OnResolve. The runtime is not started, so the loop holds
		// only the device model's own timer — and the runtime's queue of
		// resolved deliveries only grows, so a fresh device every 4096 packets
		// keeps that queue's growth out of the measurement.
		var loop *sim.Loop
		var nd *vmm.NetDevice
		var own vtime.Virtual
		resolved := 0
		fresh := func() {
			loop = sim.NewLoop()
			rt := must1(vmm.NewRuntime(newHost(loop), "g", idleApp{}, []sim.Time{0, 0, 0}))
			nd = must1(vmm.NewNetDevice(rt, 3))
			nd.SendProposal = vmm.ProposalSinkFunc(func(_, _ uint64, v vtime.Virtual) { own = v })
			nd.OnResolve = vmm.ResolveSinkFunc(func(uint64, vtime.Virtual, guest.Payload) { resolved++ })
		}
		ns, allocs := e.timeOps(e.n(50000), func(i int) {
			if i%4096 == 0 {
				fresh()
			}
			seq := uint64(i%4096 + 1)
			nd.HandleInbound(seq, guest.Payload{Src: clientAddr, Size: 200})
			loop.ProcessNextEvent()
			nd.HandlePeerProposal("h1", nd.View(), seq, own-1000)
			nd.HandlePeerProposal("h2", nd.View(), seq, own+1000)
		})
		if resolved == 0 {
			panic("netdev driver resolved nothing")
		}
		return []float64{ns, allocs}
	}},
	{[]string{"vmm.journal_record_ns", "vmm.replay_ns_per_record"}, func(e *driverEnv) []float64 {
		j := vmm.NewJournal()
		record, _ := e.timeOps(e.n(100000), func(i int) {
			j.Record(uint64(i+1), vtime.Virtual(i+1)*vtime.Virtual(sim.Millisecond), guest.Payload{Src: clientAddr, Size: 200})
		})
		// Replay: a 1000-record journal, one delivery per virtual ms.
		const records = 1000
		j = vmm.NewJournal()
		for i := 1; i <= records; i++ {
			j.Record(uint64(i), vtime.Virtual(i)*vtime.Virtual(sim.Millisecond), guest.Payload{Src: clientAddr, Size: 200, Data: uint64(i)})
		}
		host := newHost(sim.NewLoop())
		target := int64(records+1) * int64(sim.Millisecond) // slope 1: one branch per virtual ns
		replay, _ := e.timeOps(e.n(4), func(int) {
			rt := must1(vmm.NewReplacementRuntime(host, "g", &echoApp{}, []sim.Time{0, 0, 0}, j, target))
			if rt.Stats().ReplayedRecords != records {
				panic(fmt.Sprintf("replay driver replayed %d records", rt.Stats().ReplayedRecords))
			}
			rt.Release()
		})
		return []float64{record, replay / records}
	}},
	{[]string{"gateway.ingress_replicate_ns", "gateway.egress_release_ns"}, func(e *driverEnv) []float64 {
		// Ingress: one client packet in, three replicated copies delivered.
		loop, net := newFabric(0)
		ing := must1(gateway.NewIngress(net, loop, "ingress"))
		dom0 := []netsim.Addr{"d0", "d1", "d2"}
		for _, a := range dom0 {
			must(net.Attach(&netsim.FuncNode{Addr: a}))
		}
		must(ing.RegisterGuest("g", dom0))
		in, _ := e.timeOps(e.n(50000), func(int) {
			net.Send(net.AllocPacket(clientAddr, gateway.ServiceAddr("g"), 200, "ping", nil))
			must(loop.RunUntil(loop.Now() + sim.Millisecond))
		})
		// Egress: three tunnel copies in, forward on the second.
		loop, net = newFabric(0)
		eg := must1(gateway.NewEgress(net, loop, "egress", 3))
		must(net.Attach(&netsim.FuncNode{Addr: clientAddr}))
		out, _ := e.timeOps(e.n(50000), func(i int) {
			for k, a := range dom0 {
				p := net.AllocPacket(a, eg.Addr(), 128, "egress:tunnel", nil)
				p.Body = netsim.PacketBody{Kind: netsim.BodyEgress, GuestID: "g", Origin: fmt.Sprint("h", k),
					Seq: uint64(i + 1), OrigDst: clientAddr, Size: 128, Data: uint64(i)}
				net.Send(p)
			}
			must(loop.RunUntil(loop.Now() + sim.Millisecond))
		})
		if eg.Forwarded() == 0 {
			panic("egress driver forwarded nothing")
		}
		return []float64{in, out}
	}},
	{[]string{"core.deploy_ns", "core.undeploy_ns"}, func(e *driverEnv) []float64 {
		cfg := core.DefaultClusterConfig()
		cfg.Hosts = 24
		c := must1(core.New(cfg))
		deploy, undeploy := e.timePair(e.n(2000), func(i int) {
			must1(c.Deploy(fmt.Sprint("d", i), []int{i % 24, (i + 1) % 24, (i + 2) % 24}, factory(kindEcho)))
		}, func(i int) {
			must(c.Undeploy(fmt.Sprint("d", i)))
		})
		return []float64{deploy, undeploy}
	}},
	{[]string{"controlplane.apply_admit_ns", "controlplane.apply_evict_ns"}, func(e *driverEnv) []float64 {
		// A steady fleet: 24 machines of capacity 4 holding 20 guests.
		cfg := core.DefaultClusterConfig()
		cfg.Hosts = 24
		c := must1(core.New(cfg))
		cp := must1(controlplane.New(c, controlplane.DefaultConfig(4)))
		const resident = 20
		for i := 0; i < resident; i++ {
			must(cp.Apply(controlplane.AdmitOp{GuestID: fmt.Sprint("a", i), Factory: factory(kindEcho)}).Err)
		}
		evict, admit := e.timePair(e.n(2000), func(i int) {
			must(cp.Apply(controlplane.EvictOp{GuestID: fmt.Sprint("a", i)}).Err)
		}, func(i int) {
			must(cp.Apply(controlplane.AdmitOp{GuestID: fmt.Sprint("a", i+resident), Factory: factory(kindEcho)}).Err)
		})
		return []float64{admit, evict}
	}},
	{[]string{"controlplane.replace_wall_us"}, func(e *driverEnv) []float64 {
		// Host time to drive one whole ReplaceOp barrier on a small running
		// cloud: kill a replica of a pinged guest, replace it, run until done.
		var us []float64
		for b := 0; b < e.n(batches); b++ {
			cfg := core.DefaultClusterConfig()
			cfg.Hosts = 5
			c := must1(core.New(cfg))
			cp := must1(controlplane.New(c, controlplane.DefaultConfig(3)))
			oc := cp.Apply(controlplane.AdmitOp{GuestID: "web", Factory: factory(kindEcho)})
			must(oc.Err)
			must(c.Net().Attach(&netsim.FuncNode{Addr: clientAddr}))
			must(c.Net().Attach(&netsim.FuncNode{Addr: sinkAddr}))
			c.Start()
			warm := 200 * sim.Millisecond
			for t := 2 * sim.Millisecond; t < warm; t += 2 * sim.Millisecond {
				c.Loop().At(t, "bench:ping", func() {
					c.Net().Send(c.Net().AllocPacket(clientAddr, core.ServiceAddr("web"), 128, "ping", uint64(0)))
				})
			}
			must(c.Run(warm))
			rep := oc.Guest.Replica(0)
			rep.Runtime().Stop()
			t0 := time.Now()
			done := cp.Apply(controlplane.ReplaceOp{GuestID: "web", DeadHost: rep.Host()})
			for until := warm + 50*sim.Millisecond; !done.Done() && until < warm+10*sim.Second; until += 50 * sim.Millisecond {
				must(c.Run(until))
			}
			us = append(us, float64(time.Since(t0).Microseconds()))
			must(done.Err)
		}
		return []float64{summarize(us).median}
	}},
	{[]string{"placement.admit_ns.n200", "placement.admit_ns.n1000", "placement.rehome_ns.n1000", "placement.verify_ns.n1000"}, func(e *driverEnv) []float64 {
		// Pools held at three quarters of capacity 4, the cloud workloads' fill.
		var out []float64
		var big *placement.Pool
		for _, machines := range []int{200, 1000} {
			pool := must1(placement.NewPool(machines, 4))
			for i := 0; i < machines; i++ {
				must1(pool.Admit(fmt.Sprint("g", i)))
			}
			admit, _ := e.timePair(e.n(2000), func(i int) {
				must1(pool.Admit(fmt.Sprint("g", i+machines)))
			}, func(i int) {
				must1(pool.Release(fmt.Sprint("g", i)))
			})
			out = append(out, admit)
			big = pool
		}
		ids := big.IDs()
		rehome, _ := e.timeOps(e.n(2000), func(i int) {
			id := ids[i%len(ids)]
			tri, _ := big.Triangle(id)
			if _, _, err := big.Rehome(id, tri[0]); err != nil {
				panic(err)
			}
		})
		verify, _ := e.timeOps(e.n(20), func(int) { must(big.Verify()) })
		return append(out, rehome, verify)
	}},
	{[]string{"guest.step_ns"}, func(e *driverEnv) []float64 {
		// One delivered packet through the guest: interrupt, handler, the
		// compute it queued, the reply's VM exit and output-log fold.
		vm := must1(guest.New("g", &echoApp{}, fixedClock{}))
		ns, _ := e.timeOps(e.n(200000), func(i int) {
			vm.DeliverPacket(guest.Payload{Src: clientAddr, Size: 200, Data: uint64(i)})
			for vm.Busy() {
				vm.Step(250_000)
			}
		})
		return []float64{ns}
	}},
	{[]string{"scenario.parse_validate_us", "scenario.corpus_run_s"}, func(e *driverEnv) []float64 {
		// The shipped corpus, beside the benchmark's directory. Parse
		// time is the median over files; the run is every ci:true file on
		// its first seed.
		files, _ := filepath.Glob(filepath.Join(benchDir(), "..", "scenarios", "*.yaml"))
		if len(files) == 0 {
			panic("no scenario corpus beside the benchmark's directory")
		}
		sort.Strings(files)
		var parse []float64
		t0 := time.Now()
		for _, f := range files[:e.n(len(files))] {
			t := time.Now()
			sc := must1(scenario.Load(f))
			must(sc.Validate())
			parse = append(parse, float64(time.Since(t).Microseconds()))
			if !sc.CI {
				continue
			}
			if res := must1(scenario.Run(sc, scenario.Options{})); !res.Passed() {
				panic(fmt.Sprintf("scenario %s: %v", sc.Name, res.Failures))
			}
		}
		total := time.Since(t0).Seconds()
		for _, p := range parse {
			total -= p / 1e6
		}
		return []float64{summarize(parse).median, total}
	}},
}

// runLayerDrivers runs every driver, each as a span, and returns the named
// results. scale divides the full sizes (1 = full).
func runLayerDrivers(ht *hostTimer, tr *tracer, scale int) (out map[string]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer driver: %v", p)
		}
	}()
	env := &driverEnv{ht: ht, scale: scale}
	out = map[string]float64{}
	for _, d := range layerDrivers {
		runtime.GC() // the workload's garbage is not the driver's to collect
		sp := tr.begin("driver." + d.names[0])
		vals := d.run(env)
		tr.end(sp)
		for i, name := range d.names {
			out[name] = vals[i]
		}
	}
	return out, nil
}

// snapshotUS times Snapshot plus the Prometheus render of the traced
// repetition's registry.
func snapshotUS(reg *metrics.Registry) float64 {
	var us []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		_ = reg.Snapshot()
		_ = reg.Prom()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return summarize(us).median
}
