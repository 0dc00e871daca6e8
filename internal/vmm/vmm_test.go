package vmm

import (
	"errors"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

func testHost(t *testing.T, name string, loop *sim.Loop, src *sim.Source, offset sim.Time, drift float64) *Host {
	t.Helper()
	cfg := DefaultConfig()
	h, err := NewHost(name, loop, src.Stream("host:"+name), sim.NewClock(offset, drift), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.BaseRate = 0 },
		func(c *Config) { c.ExitEvery = 0 },
		func(c *Config) { c.DeltaN = 0 },
		func(c *Config) { c.DeltaD = 0 },
		func(c *Config) { c.MaxLead = 0 },
		func(c *Config) { c.EpochInstr = -1 },
		func(c *Config) { c.EpochInstr = c.ExitEvery + 1 },
	}
	for i, m := range mut {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); !errors.Is(err, ErrVMM) {
			t.Errorf("mutation %d not rejected: %v", i, err)
		}
	}
}

func TestHostProcessorSharing(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(1)
	h := testHost(t, "h", loop, src, 0, 0)
	full := h.busyRate()
	h.setBusy(1)
	if h.busyRate() != full {
		t.Fatal("single busy guest should get full rate")
	}
	h.setBusy(1)
	if h.busyRate() != full/2 {
		t.Fatalf("two busy guests: rate %v, want %v", h.busyRate(), full/2)
	}
	if h.idleRate() != full {
		t.Fatal("idle rate should stay nominal")
	}
	h.setBusy(-1)
	h.setBusy(-1)
	h.setBusy(-1) // extra decrement must clamp at 0
	if h.BusyCount() != 0 {
		t.Fatalf("busy count %d", h.BusyCount())
	}
}

func TestHostIODelayGrowsWithLoad(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(2)
	h := testHost(t, "h", loop, src, 0, 0)
	mean := func() float64 {
		var s float64
		for i := 0; i < 4000; i++ {
			s += float64(h.ioDelay())
		}
		return s / 4000
	}
	idle := mean()
	const burst = 8 // an ACK burst's worth of concurrent Dom0 work
	for i := 0; i < burst; i++ {
		h.ioBegin()
	}
	loaded := mean()
	for i := 0; i < burst; i++ {
		h.ioEnd()
	}
	if loaded <= idle*1.5 {
		t.Fatalf("io delay under load %v not ≫ idle %v", loaded, idle)
	}
	if h.IOInFlight() != 0 {
		t.Fatal("ioEnd accounting wrong")
	}
}

func TestHostDiskFIFO(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(3)
	h := testHost(t, "h", loop, src, 0, 0)
	r1 := h.diskService(1 << 20)
	r2 := h.diskService(1 << 20)
	if r2 <= r1 {
		t.Fatalf("disk requests must serialize: %v then %v", r1, r2)
	}
	if h.DiskOps() != 2 {
		t.Fatal("disk op count wrong")
	}
	// The second request waits behind the first: the backlog is the whole
	// FIFO horizon, and it drains to zero once the disk is idle.
	if got := h.DiskBacklog(loop.Now()); got != r2-loop.Now() || got <= 0 {
		t.Fatalf("backlog %v, want %v", got, r2-loop.Now())
	}
	if got := h.DiskBacklog(r2); got != 0 {
		t.Fatalf("backlog at the horizon %v, want 0", got)
	}
	// Transfer time must scale with bytes: at 80MB/s, 80MB takes ~1s.
	r3start := h.diskFree
	r3 := h.diskService(80 << 20)
	if got := r3 - r3start; got < sim.Second {
		t.Fatalf("80MB transfer took %v, want >= 1s", got)
	}
}

func TestGroupMedianOddCounts(t *testing.T) {
	if m := GroupMedian([]vtime.Virtual{5, 1, 9, 3, 7}); m != 5 {
		t.Fatalf("median5 = %v", m)
	}
}

// echoApp computes on boot, then echoes every packet with a response whose
// payload includes the guest-visible clock; it also does periodic disk I/O.
type echoApp struct{}

func (echoApp) Boot(c guest.Ctx) {
	c.Compute(500_000)
	c.DiskRead("boot-block", 8192)
}

func (echoApp) OnPacket(c guest.Ctx, p guest.Payload) {
	c.Compute(50_000)
	c.Send(p.Src, p.Size, c.Clock().Now())
}

func (echoApp) OnDiskDone(c guest.Ctx, d guest.DiskDone) {
	c.Compute(20_000)
}

func (echoApp) OnTimer(c guest.Ctx, tag string) {}

// loadApp alternates busy compute bursts and disk reads forever, driven by
// guest timers: a stand-in for an active coresident VM.
type loadApp struct{}

func (loadApp) Boot(c guest.Ctx)                         { c.SetTimer(0, "burst") }
func (loadApp) OnPacket(c guest.Ctx, p guest.Payload)    {}
func (loadApp) OnDiskDone(c guest.Ctx, d guest.DiskDone) {}
func (loadApp) OnTimer(c guest.Ctx, tag string) {
	c.Compute(2_000_000)
	c.DiskRead("victim-block", 64<<10)
	c.SetTimer(vtime.Virtual(8*sim.Millisecond), "burst")
}

// replicaSet wires three StopWatch runtimes across three hosts with direct
// (loop-delayed) proposal links, standing in for the multicast layer.
type replicaSet struct {
	loop *sim.Loop
	rts  []*Runtime
	nds  []*NetDevice
}

func buildReplicaSet(t *testing.T, seed uint64, app guest.App, propDelay sim.Time) *replicaSet {
	t.Helper()
	loop := sim.NewLoop()
	src := sim.NewSource(seed)
	offsets := []sim.Time{0, 3 * sim.Millisecond, 7 * sim.Millisecond}
	drifts := []float64{0, 2e-5, -1.5e-5}
	rs := &replicaSet{loop: loop}
	boots := make([]sim.Time, 3)
	hosts := make([]*Host, 3)
	for i := 0; i < 3; i++ {
		hosts[i] = testHost(t, []string{"A", "B", "C"}[i], loop, src, offsets[i], drifts[i])
		boots[i] = hosts[i].Clock().Read(0)
	}
	for i := 0; i < 3; i++ {
		rt, err := NewRuntime(hosts[i], "guest-1", app, boots)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := NewNetDevice(rt, 3)
		if err != nil {
			t.Fatal(err)
		}
		rs.rts = append(rs.rts, rt)
		rs.nds = append(rs.nds, nd)
	}
	// Wire proposals and pacing across replicas with a fixed link delay.
	for i := range rs.nds {
		i := i
		origin := rs.rts[i].Host().Name()
		rs.nds[i].SendProposal = ProposalSinkFunc(func(view, seq uint64, v vtime.Virtual) {
			for j := range rs.nds {
				if j == i {
					continue
				}
				j := j
				loop.After(propDelay, "prop", func() { rs.nds[j].HandlePeerProposal(origin, view, seq, v) })
			}
		})
		rs.rts[i].OnPace = PaceSinkFunc(func(v vtime.Virtual, _ int64, _ vtime.EpochSample) {
			for j := range rs.rts {
				if j == i {
					continue
				}
				j := j
				name := rs.rts[i].Host().Name()
				loop.After(propDelay, "pace", func() { rs.rts[j].OnPeerVirt(name, v) })
			}
		})
	}
	return rs
}

// inject replicates a packet to all three device models with per-host
// arrival skew, as the ingress node would.
func (rs *replicaSet) inject(seq uint64, p guest.Payload, skews []sim.Time) {
	for i, nd := range rs.nds {
		nd := nd
		rs.loop.After(skews[i%len(skews)], "ingress", func() { nd.HandleInbound(seq, p) })
	}
}

func TestReplicaLockstep(t *testing.T) {
	app := echoApp{}
	rs := buildReplicaSet(t, 42, app, 500*sim.Microsecond)
	var deliveries [3][]vtime.Virtual
	for i, rt := range rs.rts {
		i := i
		rt.OnNetDeliver = func(seq uint64, v vtime.Virtual, _ sim.Time) {
			deliveries[i] = append(deliveries[i], v)
		}
		rt.OnSend = SendSinkFunc(func(a guest.IOAction) {}) // discard outputs
		rt.Start()
	}
	// A packet stream with arrival skew across hosts.
	skews := []sim.Time{0, 300 * sim.Microsecond, 800 * sim.Microsecond}
	for k := 0; k < 40; k++ {
		seq := uint64(k + 1)
		at := sim.Time(k+1) * 20 * sim.Millisecond
		rs.loop.At(at, "client", func() {
			rs.inject(seq, guest.Payload{Src: "client", Size: 512, Data: seq}, skews)
		})
	}
	if err := rs.loop.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}

	// All replicas: identical outputs, identical delivery virtual times,
	// identical guest stats.
	d0 := rs.rts[0].VM().OutputDigest()
	for i, rt := range rs.rts {
		if rt.VM().OutputDigest() != d0 {
			t.Fatalf("replica %d output digest diverged", i)
		}
		// Raw branch counts differ at a fixed real-time cutoff (replicas are
		// in lockstep in virtual time, not real time); every event counter
		// must agree exactly.
		a, b := rt.VM().Stats(), rs.rts[0].VM().Stats()
		a.Branches, a.IdleBranches = 0, 0
		b.Branches, b.IdleBranches = 0, 0
		if a != b {
			t.Fatalf("replica %d stats diverged:\n%+v\n%+v", i, a, b)
		}
		if rt.Stats().Divergences != 0 {
			t.Fatalf("replica %d saw %d divergences", i, rt.Stats().Divergences)
		}
	}
	if len(deliveries[0]) != 40 {
		t.Fatalf("delivered %d/40 packets", len(deliveries[0]))
	}
	for i := 1; i < 3; i++ {
		if len(deliveries[i]) != len(deliveries[0]) {
			t.Fatalf("replica %d delivered %d packets vs %d", i, len(deliveries[i]), len(deliveries[0]))
		}
		for k := range deliveries[0] {
			if deliveries[i][k] != deliveries[0][k] {
				t.Fatalf("replica %d delivery %d at %v vs %v", i, k, deliveries[i][k], deliveries[0][k])
			}
		}
	}
	// Outputs flowed: one response per packet.
	if got := rs.rts[0].VM().Stats().PacketsSent; got != 40 {
		t.Fatalf("guest sent %d packets, want 40", got)
	}
}

func TestReplicaLockstepWithCoresidentLoad(t *testing.T) {
	// Same as above, but host A also runs an active load guest (the
	// "victim"): replica A slows down in real time, yet all replicas must
	// remain in virtual lockstep.
	rs := buildReplicaSet(t, 77, echoApp{}, 500*sim.Microsecond)
	victim, err := NewRuntime(rs.rts[0].Host(), "victim-1", loadApp{}, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	victim.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	var deliveries [3][]vtime.Virtual
	for i, rt := range rs.rts {
		i := i
		rt.OnNetDeliver = func(seq uint64, v vtime.Virtual, _ sim.Time) {
			deliveries[i] = append(deliveries[i], v)
		}
		rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
		rt.Start()
	}
	victim.Start()
	skews := []sim.Time{0, 300 * sim.Microsecond, 800 * sim.Microsecond}
	for k := 0; k < 30; k++ {
		seq := uint64(k + 1)
		at := sim.Time(k+1) * 25 * sim.Millisecond
		rs.loop.At(at, "client", func() {
			rs.inject(seq, guest.Payload{Src: "client", Size: 512, Data: seq}, skews)
		})
	}
	if err := rs.loop.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	d0 := rs.rts[0].VM().OutputDigest()
	for i, rt := range rs.rts {
		if rt.VM().OutputDigest() != d0 {
			t.Fatalf("replica %d diverged under coresident load", i)
		}
		if rt.Stats().Divergences != 0 {
			t.Fatalf("replica %d divergences: %d", i, rt.Stats().Divergences)
		}
	}
	for i := 1; i < 3; i++ {
		for k := range deliveries[0] {
			if deliveries[i][k] != deliveries[0][k] {
				t.Fatalf("delivery virt diverged under load at %d", k)
			}
		}
	}
	// The loaded host's replica must have been slower in real time —
	// verify contention actually happened: host A had 2+ busy guests at
	// some point. (Indirect check: victim did disk work.)
	if victim.VM().Stats().DiskRequests == 0 {
		t.Fatal("victim never generated load")
	}
}

func TestPacingSlowsFastestReplica(t *testing.T) {
	// Make host A 3x faster than B and C by lowering B/C's base rate via
	// separate configs is not possible per-host (shared cfg); instead give
	// host A a large positive drift — pacing must kick in.
	loop := sim.NewLoop()
	src := sim.NewSource(5)
	cfg := DefaultConfig()
	mkHost := func(name string, rate int64) *Host {
		c := cfg
		c.BaseRate = rate
		h, err := NewHost(name, loop, src.Stream("h"+name), sim.NewClock(0, 0), c)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fast := mkHost("fast", 3_000_000_000)
	slow1 := mkHost("slow1", 1_000_000_000)
	slow2 := mkHost("slow2", 1_000_000_000)
	boots := []sim.Time{0, 0, 0}
	var rts []*Runtime
	for _, h := range []*Host{fast, slow1, slow2} {
		rt, err := NewRuntime(h, "g", echoApp{}, boots)
		if err != nil {
			t.Fatal(err)
		}
		rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
		rts = append(rts, rt)
	}
	for i := range rts {
		i := i
		rts[i].OnPace = PaceSinkFunc(func(v vtime.Virtual, _ int64, _ vtime.EpochSample) {
			for j := range rts {
				if j != i {
					j := j
					name := rts[i].Host().Name()
					loop.After(200*sim.Microsecond, "pace", func() { rts[j].OnPeerVirt(name, v) })
				}
			}
		})
		rts[i].Start()
	}
	if err := loop.RunUntil(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rts[0].Stats().Pauses == 0 {
		t.Fatal("fast replica was never paused")
	}
	lead := rts[0].VirtAtLastExit() - rts[1].VirtAtLastExit()
	if lead < 0 {
		lead = -lead
	}
	maxAllowed := cfg.MaxLead + vtime.Virtual(10*sim.Millisecond) // slack for reporting lag
	if lead > maxAllowed {
		t.Fatalf("virtual lead %v exceeds bound %v", lead, maxAllowed)
	}
}

// TestPacingCountsOnlyTheView: SetView drops a departed peer's progress from
// the pacing maximum, and a beacon from outside the view that lands later
// cannot put it back. Before, one such beacon re-entered the maximum for
// good and held a sole survivor at MaxLead past its stale report.
func TestPacingCountsOnlyTheView(t *testing.T) {
	loop := sim.NewLoop()
	rt, err := NewRuntime(testHost(t, "A", loop, sim.NewSource(7), 0, 0), "g", echoApp{}, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(guest.IOAction) {})
	rt.SetView(1, []string{"A", "B", "C"})
	rt.Start()
	start := rt.VirtAtLastExit()
	// C's report is far ahead and holds the maximum; B's never moves.
	rt.OnPeerVirt("B", start)
	rt.OnPeerVirt("C", start+vtime.Virtual(sim.Second))
	if err := loop.RunUntil(30 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rt.ex.paused {
		t.Fatal("paused while C's report led")
	}
	// C leaves the group: the maximum falls to B's, and A pauses MaxLead on.
	rt.SetView(2, []string{"A", "B"})
	if err := loop.RunUntil(60 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rt.maxPeer != start || !rt.ex.paused {
		t.Fatalf("after the view drop: maxPeer %v (want %v), paused %v", rt.maxPeer, start, rt.ex.paused)
	}
	// A beacon from C still in flight changes nothing.
	pauses := rt.Stats().Pauses
	rt.OnPeerVirt("C", start+vtime.Virtual(2*sim.Second))
	if rt.maxPeer != start || !rt.ex.paused || rt.Stats().Pauses != pauses {
		t.Fatalf("a former peer's beacon moved pacing: maxPeer %v, paused %v", rt.maxPeer, rt.ex.paused)
	}
	// A member's report still lifts the pause.
	rt.OnPeerVirt("B", start+vtime.Virtual(sim.Second))
	if rt.ex.paused {
		t.Fatal("B's report did not lift the pause")
	}
}

func TestDivergenceCountedWhenMedianAlreadyPassed(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(9)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewRuntime(h, "g", echoApp{}, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	rt.Start()
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Enqueue a delivery in the past.
	rt.EnqueueNetDelivery(1, rt.VirtAtLastExit()-1, guest.Payload{Src: "x", Size: 1})
	if rt.Stats().Divergences != 1 {
		t.Fatalf("divergences = %d, want 1", rt.Stats().Divergences)
	}
	// It must still be delivered (at the next exit).
	if err := loop.RunUntil(110 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().NetDelivered != 1 {
		t.Fatal("past-due packet never delivered")
	}
}

func TestDiskDeliveryAtDeltaD(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(11)
	h := testHost(t, "h", loop, src, 0, 0)
	var diskVirts []vtime.Virtual
	app := &recordApp{onDisk: func(c guest.Ctx, d guest.DiskDone) {
		diskVirts = append(diskVirts, c.Clock().Now())
	}}
	app.boot = func(c guest.Ctx) {
		c.Compute(1_000_000)
		c.DiskRead("blk", 4096)
	}
	rt, err := NewRuntime(h, "g", app, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	rt.Start()
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(diskVirts) != 1 {
		t.Fatalf("disk interrupts: %d", len(diskVirts))
	}
	// Issued at virt ≈ 1e6 branches ≈ 1ms; delivered at ≥ issue+Δd,
	// quantized up to the next exit boundary (≤ ExitEvery).
	issue := vtime.Virtual(1_000_000 + 2) // boot compute + disk I/O instruction
	wantMin := issue + h.Config().DeltaD
	wantMax := wantMin + vtime.Virtual(h.Config().ExitEvery)*vtime.Virtual(vtime.InitialSlope)
	if diskVirts[0] < wantMin || diskVirts[0] > wantMax {
		t.Fatalf("disk delivered at %v, want in [%v, %v]", diskVirts[0], wantMin, wantMax)
	}
	if rt.Stats().DiskOverruns != 0 {
		t.Fatal("unexpected disk overrun with default Δd")
	}
}

func TestDiskOverrunDetected(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(13)
	cfg := DefaultConfig()
	cfg.DeltaD = vtime.Virtual(100 * sim.Microsecond) // far below seek time
	h, err := NewHost("h", loop, src.Stream("h"), sim.NewClock(0, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := &recordApp{}
	app.boot = func(c guest.Ctx) { c.DiskRead("blk", 1<<20) }
	rt, err := NewRuntime(h, "g", app, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	rt.Start()
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().DiskOverruns != 1 {
		t.Fatalf("overruns = %d, want 1 with tiny Δd", rt.Stats().DiskOverruns)
	}
}

// recordApp is a configurable scripted app.
type recordApp struct {
	boot    func(c guest.Ctx)
	onDisk  func(c guest.Ctx, d guest.DiskDone)
	onPkt   func(c guest.Ctx, p guest.Payload)
	onTimer func(c guest.Ctx, tag string)
}

func (a *recordApp) Boot(c guest.Ctx) {
	if a.boot != nil {
		a.boot(c)
	}
}
func (a *recordApp) OnPacket(c guest.Ctx, p guest.Payload) {
	if a.onPkt != nil {
		a.onPkt(c, p)
	}
}
func (a *recordApp) OnDiskDone(c guest.Ctx, d guest.DiskDone) {
	if a.onDisk != nil {
		a.onDisk(c, d)
	}
}
func (a *recordApp) OnTimer(c guest.Ctx, tag string) {
	if a.onTimer != nil {
		a.onTimer(c, tag)
	}
}

func TestPITTicksAtVirtualRate(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(15)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	rt.Start()
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	// Idle guest at nominal rate: virt advances ≈ 1s → ~250 ticks.
	ticks := rt.VM().Stats().TimerInterrupts
	if ticks < 240 || ticks > 260 {
		t.Fatalf("timer interrupts in 1s: %d, want ~250", ticks)
	}
}

func TestBaselinePITByRealTime(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(17)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewBaselineRuntime(h, "g", &recordApp{})
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	rt.Start()
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	ticks := rt.VM().Stats().TimerInterrupts
	if ticks < 240 || ticks > 260 {
		t.Fatalf("baseline ticks in 1s: %d, want ~250", ticks)
	}
}

func TestBaselineDeliversPromptly(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(19)
	h := testHost(t, "h", loop, src, 0, 0)
	// The baseline guest reads real time: the host clock has no offset or
	// drift, so its app sees the instant the packet reached it.
	var deliveredAt []sim.Time
	app := &recordApp{onPkt: func(c guest.Ctx, _ guest.Payload) {
		deliveredAt = append(deliveredAt, sim.Time(c.Clock().Now()))
	}}
	rt, err := NewBaselineRuntime(h, "g", app)
	if err != nil {
		t.Fatal(err)
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	rt.Start()
	sendAt := 10 * sim.Millisecond
	loop.At(sendAt, "pkt", func() { rt.HandleInbound(guest.Payload{Src: "c", Size: 100}) })
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(deliveredAt) != 1 {
		t.Fatalf("delivered %d packets", len(deliveredAt))
	}
	lat := deliveredAt[0] - sendAt
	// Baseline latency: io delay (~0.5ms) + exit quantization (0.25ms).
	if lat > 3*sim.Millisecond {
		t.Fatalf("baseline delivery latency %v too high", lat)
	}
	// StopWatch latency for comparison would be ≥ Δn = 10ms (virtual ≈ real
	// at slope 1); the baseline must beat that comfortably.
	if lat >= sim.Time(h.Config().DeltaN) {
		t.Fatalf("baseline latency %v not below Δn-equivalent %v", lat, h.Config().DeltaN)
	}
}

func TestNetDeviceProtocol(t *testing.T) {
	rs := buildReplicaSet(t, 21, &recordApp{}, 300*sim.Microsecond)
	for _, rt := range rs.rts {
		rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
		rt.Start()
	}
	rs.inject(1, guest.Payload{Src: "c", Size: 64, Data: "x"}, []sim.Time{0, 0, 0})
	if err := rs.loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i, nd := range rs.nds {
		if nd.Proposed() != 1 {
			t.Fatalf("nd %d proposed %d", i, nd.Proposed())
		}
		if nd.Resolved() != 1 {
			t.Fatalf("nd %d resolved %d", i, nd.Resolved())
		}
		if nd.Pending() != 0 {
			t.Fatalf("nd %d pending %d", i, nd.Pending())
		}
	}
	for i, rt := range rs.rts {
		if rt.Stats().NetDelivered != 1 {
			t.Fatalf("rt %d delivered %d", i, rt.Stats().NetDelivered)
		}
	}
}

func TestNetDeviceValidation(t *testing.T) {
	if _, err := NewNetDevice(nil, 3); !errors.Is(err, ErrVMM) {
		t.Fatal("nil runtime should fail")
	}
	loop := sim.NewLoop()
	src := sim.NewSource(23)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetDevice(rt, 2); !errors.Is(err, ErrVMM) {
		t.Fatal("even replica count should fail")
	}
	if _, err := NewNetDevice(rt, 0); !errors.Is(err, ErrVMM) {
		t.Fatal("zero replica count should fail")
	}
}

func TestRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(nil, "g", &recordApp{}, []sim.Time{0}); !errors.Is(err, ErrVMM) {
		t.Fatal("nil host should fail")
	}
	loop := sim.NewLoop()
	src := sim.NewSource(25)
	h := testHost(t, "h", loop, src, 0, 0)
	if _, err := NewRuntime(h, "", &recordApp{}, []sim.Time{0}); err == nil {
		t.Fatal("empty guest id should fail")
	}
	if _, err := NewRuntime(h, "g", &recordApp{}, nil); err == nil {
		t.Fatal("no boot times should fail")
	}
	if _, err := NewBaselineRuntime(nil, "g", &recordApp{}); !errors.Is(err, ErrVMM) {
		t.Fatal("baseline nil host should fail")
	}
}

func TestHostValidation(t *testing.T) {
	loop := sim.NewLoop()
	rng := sim.NewSource(1).Stream("x")
	clk := sim.NewClock(0, 0)
	if _, err := NewHost("", loop, rng, clk, DefaultConfig()); !errors.Is(err, ErrVMM) {
		t.Fatal("empty name should fail")
	}
	if _, err := NewHost("h", nil, rng, clk, DefaultConfig()); !errors.Is(err, ErrVMM) {
		t.Fatal("nil loop should fail")
	}
	bad := DefaultConfig()
	bad.BaseRate = -1
	if _, err := NewHost("h", loop, rng, clk, bad); !errors.Is(err, ErrVMM) {
		t.Fatal("bad config should fail")
	}
}
