package vmm

import (
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Unit tests for the exec engine's deterministic-exit-point invariant under
// rescaling and pausing.

// chunkApp computes a long burst, then one send, then idles.
type chunkApp struct{}

func (chunkApp) Boot(c guest.Ctx) {
	c.Compute(1_000_000)
	c.Send("sink", 64, "done")
}
func (chunkApp) OnPacket(c guest.Ctx, p guest.Payload)    {}
func (chunkApp) OnDiskDone(c guest.Ctx, d guest.DiskDone) {}
func (chunkApp) OnTimer(c guest.Ctx, tag string)          {}

// exitSpy lets a test see each exit a runtime takes, before the runtime.
// A boundary a sync crosses, where the exit event is still armed, is none.
type exitSpy struct {
	exitHandler
	ex  *exec
	see func(res guest.StepResult)
}

func (s exitSpy) exit(res guest.StepResult) {
	if s.ex.ev == nil {
		s.see(res)
	}
	s.exitHandler.exit(res)
}

func spyOnExits(rt *Runtime, see func(res guest.StepResult)) {
	rt.ex.vmm = exitSpy{rt.ex.vmm, &rt.ex, see}
}

// buildExecProbe builds a runtime and records the instruction count of every
// exit it materialises (tickless execution skips the boundary exits that
// would find nothing to do; see exec's header).
func buildExecProbe(t *testing.T, rate int64) (*sim.Loop, *Runtime, *[]int64) {
	t.Helper()
	loop := sim.NewLoop()
	src := sim.NewSource(99)
	cfg := DefaultConfig()
	cfg.BaseRate = rate
	h, err := NewHost("h", loop, src.Stream("h"), sim.NewClock(0, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(h, "g", chunkApp{}, []sim.Time{0})
	if err != nil {
		t.Fatal(err)
	}
	var exits []int64
	spyOnExits(rt, func(guest.StepResult) { exits = append(exits, rt.ex.instr) })
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
	return loop, rt, &exits
}

func TestExitPointsAreAbsoluteBoundaries(t *testing.T) {
	loop, rt, exits := buildExecProbe(t, 1_000_000_000)
	rt.Start()
	if err := loop.RunUntil(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	exitEvery := rt.cfg.ExitEvery
	sendInstr := int64(1_000_001) // compute + the I/O instruction
	for _, e := range *exits {
		if e%exitEvery != 0 && e != sendInstr {
			t.Fatalf("exit at %d: neither a boundary of %d nor the I/O point %d",
				e, exitEvery, sendInstr)
		}
	}
	// The last full boundary before the send, then the send itself; the
	// idle boundaries after it are crossed without an exit, yet counted.
	if len(*exits) < 2 || (*exits)[len(*exits)-1] != sendInstr {
		t.Fatalf("exits %v: want the I/O point %d last", *exits, sendInstr)
	}
	if got := rt.Instr(); got != 3_000_000 {
		t.Fatalf("instr after 3 ms at 1e9 branches/s = %d, want 3000000", got)
	}
}

func TestExitPointsInvariantUnderRescale(t *testing.T) {
	// Run once undisturbed, once with a sibling guest churning busy/idle
	// (forcing rescales at odd real times): the probe guest's exits stay on
	// boundaries and its I/O point. (A rescale that lands exactly on a
	// boundary takes that exit, so the churned run may materialise more of
	// them — never different ones.)
	collect := func(withChurn bool) []int64 {
		loop, rt, exits := buildExecProbe(t, 1_000_000_000)
		if withChurn {
			churn, err := NewRuntime(rt.Host(), "churn", loadApp{}, []sim.Time{0})
			if err != nil {
				t.Fatal(err)
			}
			churn.OnSend = SendSinkFunc(func(a guest.IOAction) {})
			churn.Start()
		}
		rt.Start()
		if err := loop.RunUntil(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if rt.VM().Stats().PacketsSent != 1 {
			t.Fatalf("churn=%v: the send did not happen", withChurn)
		}
		return *exits
	}
	const sendInstr = 1_000_001
	for _, exits := range [][]int64{collect(false), collect(true)} {
		sends := 0
		for _, e := range exits {
			if e == sendInstr {
				sends++
			} else if e%DefaultConfig().ExitEvery != 0 {
				t.Fatalf("exit moved under contention to %d (exits %v)", e, exits)
			}
		}
		if sends != 1 {
			t.Fatalf("exits %v: want the I/O point %d exactly once", exits, sendInstr)
		}
	}
}

func TestPauseResumePreservesTrajectory(t *testing.T) {
	loop, rt, exits := buildExecProbe(t, 1_000_000_000)
	rt.Start()
	// Pause at an arbitrary real time mid-chunk, resume later.
	loop.At(137*sim.Microsecond, "pause", func() { rt.ex.pause() })
	loop.At(900*sim.Microsecond, "resume", func() { rt.ex.resume() })
	if err := loop.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	exitEvery := rt.cfg.ExitEvery
	sendInstr := int64(1_000_001)
	for _, e := range *exits {
		if e%exitEvery != 0 && e != sendInstr {
			t.Fatalf("pause/resume moved an exit to %d", e)
		}
	}
	// The guest finished its program despite the pause.
	if rt.VM().Stats().PacketsSent != 1 {
		t.Fatal("send lost across pause/resume")
	}
}

func TestDoublePauseAndResumeAreIdempotent(t *testing.T) {
	loop, rt, _ := buildExecProbe(t, 1_000_000_000)
	rt.Start()
	loop.At(100*sim.Microsecond, "p1", func() { rt.ex.pause(); rt.ex.pause() })
	loop.At(200*sim.Microsecond, "r1", func() { rt.ex.resume(); rt.ex.resume() })
	if err := loop.RunUntil(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rt.VM().Stats().PacketsSent != 1 {
		t.Fatal("execution did not complete after double pause/resume")
	}
}

func TestStopHaltsExecution(t *testing.T) {
	loop, rt, _ := buildExecProbe(t, 1_000_000_000)
	rt.Start()
	loop.At(50*sim.Microsecond, "stop", func() { rt.Stop() })
	if err := loop.RunUntil(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := rt.Instr()
	if err := loop.RunUntil(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rt.Instr() != before {
		t.Fatal("guest advanced after Stop")
	}
	// Resume after stop is a no-op (stopped wins).
	rt.ex.resume()
	if err := loop.RunUntil(12 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rt.Instr() != before {
		t.Fatal("guest advanced after Stop+resume")
	}
}

// pulseApp answers every packet with Size branches of compute and one send,
// then idles: a busy period the test starts and whose end falls off the
// boundary grid, at the send.
type pulseApp struct{}

func (pulseApp) Boot(guest.Ctx) {}
func (pulseApp) OnPacket(c guest.Ctx, p guest.Payload) {
	c.Compute(int64(p.Size))
	c.Send(p.Src, 64, nil)
}
func (pulseApp) OnDiskDone(guest.Ctx, guest.DiskDone) {}
func (pulseApp) OnTimer(guest.Ctx, string)            {}

// TestSetBusyRetimesOnlyChangedRates pins who a busy/idle transition
// re-times: an idle resident keeps the event it armed and the chunk it was
// armed for across a co-resident's busy→idle→busy cycle; going from no busy
// guest to one and back re-times nobody; a second busy guest re-times the
// first — at the instant it goes busy and again at the instant it is done —
// and still not the idle one.
func TestSetBusyRetimesOnlyChangedRates(t *testing.T) {
	loop := sim.NewLoop()
	h, err := NewHost("h", loop, sim.NewSource(7).Stream("h"), sim.NewClock(0, 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := func(id string, app guest.App) *Runtime {
		rt, err := NewRuntime(h, id, app, []sim.Time{0})
		if err != nil {
			t.Fatal(err)
		}
		rt.OnSend = SendSinkFunc(func(guest.IOAction) {})
		rt.Start()
		return rt
	}
	idle, a, b := start("idle", idleApp{}), start("a", pulseApp{}), start("b", pulseApp{})
	var seq uint64
	pulse := func(rt *Runtime, branches int) { // delivered at rt's next boundary
		seq++
		rt.EnqueueNetDelivery(seq, rt.VirtAtLastExit()+1, guest.Payload{Src: "client", Size: branches})
	}
	runTo := func(at sim.Time, wantBusy int) {
		t.Helper()
		if err := loop.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if h.BusyCount() != wantBusy {
			t.Fatalf("at %v: %d busy guests, want %d", at, h.BusyCount(), wantBusy)
		}
	}
	// The trajectory a resident armed: its event and the chunk that began it.
	// Read from the fields — Instr and VM would sync, and move chunkStart.
	type armed struct {
		ev    sim.Handle
		start sim.Time
		rate  float64
	}
	of := func(rt *Runtime) armed { return armed{rt.ex.ev.Handle(), rt.ex.chunkStart, rt.ex.chunkRate} }
	untouched := func(when string, rt *Runtime, was armed) {
		t.Helper()
		if now := of(rt); !was.ev.Pending() || now != was {
			t.Fatalf("%s: %s was re-timed: armed %+v, now %+v (event pending: %v)", when, rt.vm.ID(), was, now, was.ev.Pending())
		}
	}
	full := h.idleRate()

	// Boundaries fall every 250 µs on this drift-free host. a: busy from 250
	// to its send 300 000 branches later, idle, busy again from 750.
	runTo(100*sim.Microsecond, 0)
	idle0, b0 := of(idle), of(b)
	pulse(a, 300_000)
	runTo(300*sim.Microsecond, 1)
	untouched("0→1", idle, idle0)
	untouched("0→1", b, b0)
	runTo(600*sim.Microsecond, 0)
	untouched("1→0", idle, idle0)
	untouched("1→0", b, b0)
	pulse(a, 2_000_000)
	runTo(800*sim.Microsecond, 1)
	untouched("busy→idle→busy", idle, idle0)
	untouched("busy→idle→busy", b, b0)
	if got := of(a); got.rate != full {
		t.Fatalf("a alone runs at %v, want the full rate %v", got.rate, full)
	}

	// b goes busy at 1000 µs: two busy guests, so a's chunk in flight is cut
	// there and re-armed at half rate. b's 100 000 branches take 200 µs at
	// that rate and its send one more branch: at 1 200 002 ns b is idle
	// again and a is re-timed back to the full rate — off the grid.
	pulse(b, 100_000)
	runTo(1100*sim.Microsecond, 2)
	if got := of(a); got.start != 1000*sim.Microsecond || got.rate != full/2 {
		t.Fatalf("1→2: a armed %+v, want a chunk from 1ms at rate %v", got, full/2)
	}
	untouched("1→2", idle, idle0)
	runTo(1300*sim.Microsecond, 1)
	if got := of(a); got.start != 1_200_002 || got.rate != full {
		t.Fatalf("2→1: a armed %+v, want a chunk from 1200002 at rate %v", got, full)
	}
	untouched("2→1", idle, idle0)
}

// TestNetDeliveryCycleKeepsItsArray: enqueue → deliver at a steady queue
// depth allocates nothing and never moves the queue's backing array (a pop
// by q[1:] walks it forward until append has to reallocate; AllocsPerRun's
// integer average would hide that, the array's address does not).
func TestNetDeliveryCycleKeepsItsArray(t *testing.T) {
	_, rt, _ := buildExecProbe(t, 1_000_000_000)
	var body any = "payload"
	virt := rt.virtLastExit
	var seq uint64
	enqueue := func() {
		seq++
		rt.EnqueueNetDelivery(seq, virt+vtime.Virtual(seq), guest.Payload{Src: "client", Size: 100, Data: body})
	}
	for range 4 {
		enqueue()
	}
	cycle := func() {
		enqueue()
		rt.deliverDue(rt.pendingNet[0].deliverVirt)
		if len(rt.pendingNet) != 4 {
			t.Fatalf("queue depth %d, want 4", len(rt.pendingNet))
		}
	}
	cycle() // the queue reaches its working capacity: depth 5
	array := &rt.pendingNet[0]
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("%v allocations per enqueue+deliver, want 0", allocs)
	}
	if &rt.pendingNet[0] != array {
		t.Error("the delivery queue's backing array moved")
	}
	if got := rt.Stats().NetDelivered; got != 1002 {
		t.Errorf("delivered %d, want 1002", got)
	}
}
