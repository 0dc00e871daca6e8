package guest

import (
	"errors"
	"testing"

	"stopwatch/internal/vtime"
)

// fakeClock is a settable ClockView.
type fakeClock struct {
	now vtime.Virtual
}

func (f *fakeClock) Now() vtime.Virtual { return f.now }
func (f *fakeClock) TSC() uint64        { return uint64(f.now) * 3 }
func (f *fakeClock) PITCounter() uint16 { return 0 }

// scriptApp queues a fixed op sequence at boot and records callbacks.
type scriptApp struct {
	boot     func(c Ctx)
	packets  []Payload
	disks    []DiskDone
	timers   []string
	onPacket func(c Ctx, p Payload)
	onDisk   func(c Ctx, d DiskDone)
	onTimer  func(c Ctx, tag string)
}

func (a *scriptApp) Boot(c Ctx) {
	if a.boot != nil {
		a.boot(c)
	}
}
func (a *scriptApp) OnPacket(c Ctx, p Payload) {
	a.packets = append(a.packets, p)
	if a.onPacket != nil {
		a.onPacket(c, p)
	}
}
func (a *scriptApp) OnDiskDone(c Ctx, d DiskDone) {
	a.disks = append(a.disks, d)
	if a.onDisk != nil {
		a.onDisk(c, d)
	}
}
func (a *scriptApp) OnTimer(c Ctx, tag string) {
	a.timers = append(a.timers, tag)
	if a.onTimer != nil {
		a.onTimer(c, tag)
	}
}

func newVM(t *testing.T, app App) (*VM, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	vm, err := New("g1", app, clk)
	if err != nil {
		t.Fatal(err)
	}
	return vm, clk
}

func TestNewValidation(t *testing.T) {
	clk := &fakeClock{}
	app := &scriptApp{}
	if _, err := New("", app, clk); !errors.Is(err, ErrGuest) {
		t.Fatal("empty id should fail")
	}
	if _, err := New("g", nil, clk); !errors.Is(err, ErrGuest) {
		t.Fatal("nil app should fail")
	}
	if _, err := New("g", app, nil); !errors.Is(err, ErrGuest) {
		t.Fatal("nil clock should fail")
	}
}

func TestBootOnce(t *testing.T) {
	n := 0
	app := &scriptApp{boot: func(c Ctx) { n++ }}
	vm, _ := newVM(t, app)
	vm.Boot()
	vm.Boot()
	if n != 1 {
		t.Fatalf("boot ran %d times", n)
	}
}

func TestComputeConsumesBranches(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) { c.Compute(1000) }}
	vm, _ := newVM(t, app)
	vm.Boot()
	if !vm.Busy() {
		t.Fatal("guest should be busy after boot")
	}
	r := vm.Step(400)
	if r.Executed != 400 || r.IO != nil || r.Idle {
		t.Fatalf("step 1: %+v", r)
	}
	r = vm.Step(400)
	if r.Executed != 400 {
		t.Fatalf("step 2: %+v", r)
	}
	r = vm.Step(400)
	// 200 compute remain, then idle burns the rest.
	if r.Executed != 400 || !r.Idle {
		t.Fatalf("step 3: %+v", r)
	}
	s := vm.Stats()
	if s.Branches != 1200 || s.IdleBranches != 200 {
		t.Fatalf("stats %+v", s)
	}
}

func TestComputeCoalesces(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) {
		c.Compute(100)
		c.Compute(200) // must merge with previous op
	}}
	vm, _ := newVM(t, app)
	vm.Boot()
	if len(vm.ops) != 1 || vm.ops[0].branches != 300 {
		t.Fatalf("ops not coalesced: %+v", vm.ops)
	}
}

func TestSendCausesExit(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) {
		c.Compute(50)
		c.Send("client", 1500, "hello")
		c.Compute(50)
	}}
	vm, _ := newVM(t, app)
	vm.Boot()
	r := vm.Step(1000)
	if r.IO == nil || !r.IO.IsSend() {
		t.Fatalf("expected send exit, got %+v", r)
	}
	if r.Executed != 51 { // 50 compute + 1 for the I/O instruction
		t.Fatalf("executed %d, want 51", r.Executed)
	}
	if r.IO.Dst != "client" || r.IO.Size != 1500 || r.IO.Seq != 1 {
		t.Fatalf("send action %+v", r.IO)
	}
	// Remaining compute then idle.
	r = vm.Step(1000)
	if r.Executed != 1000 || !r.Idle {
		t.Fatalf("tail step %+v", r)
	}
	if vm.Stats().PacketsSent != 1 {
		t.Fatal("send not counted")
	}
	if vm.OutputCount() != 1 {
		t.Fatal("output log not appended")
	}
}

func TestDiskCausesExit(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) {
		c.DiskRead("blk", 4096)
		c.DiskWrite("blk2", 512)
	}}
	vm, _ := newVM(t, app)
	vm.Boot()
	r := vm.Step(10)
	if r.IO == nil || r.IO.IsSend() || r.IO.Tag != "blk" || r.IO.Write {
		t.Fatalf("disk read exit %+v", r)
	}
	r = vm.Step(10)
	if r.IO == nil || r.IO.Tag != "blk2" || !r.IO.Write {
		t.Fatalf("disk write exit %+v", r)
	}
	if vm.Stats().DiskRequests != 2 {
		t.Fatal("disk requests not counted")
	}
}

func TestBranchesToNextIO(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) {
		c.Compute(70)
		c.Send("x", 1, nil)
	}}
	vm, _ := newVM(t, app)
	vm.Boot()
	n, has := vm.BranchesToNextIO()
	if !has || n != 70 {
		t.Fatalf("BranchesToNextIO = %d,%v", n, has)
	}
	// Drain: after the send, queue is empty.
	vm.Step(100)
	n, has = vm.BranchesToNextIO()
	if has || n != 0 {
		t.Fatalf("after drain: %d,%v", n, has)
	}
}

func TestDeliverPacketRunsHandler(t *testing.T) {
	app := &scriptApp{}
	app.onPacket = func(c Ctx, p Payload) { c.Compute(500) }
	vm, _ := newVM(t, app)
	vm.Boot()
	vm.DeliverPacket(Payload{Src: "client", Size: 100, Data: "req"})
	if len(app.packets) != 1 || app.packets[0].Data != "req" {
		t.Fatalf("packets %+v", app.packets)
	}
	if !vm.Busy() {
		t.Fatal("handler's compute not queued")
	}
	s := vm.Stats()
	if s.NetInterrupts != 1 || s.PacketsReceived != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDeliverDisk(t *testing.T) {
	app := &scriptApp{}
	vm, _ := newVM(t, app)
	vm.Boot()
	vm.DeliverDisk(DiskDone{Tag: "blk", Bytes: 4096})
	if len(app.disks) != 1 || app.disks[0].Tag != "blk" {
		t.Fatalf("disks %+v", app.disks)
	}
	if vm.Stats().DiskInterrupts != 1 {
		t.Fatal("disk interrupt not counted")
	}
}

func TestTimers(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) {
		c.SetTimer(vtime.Virtual(100), "a")
		c.SetTimer(vtime.Virtual(300), "b")
	}}
	vm, clk := newVM(t, app)
	vm.Boot()
	due, ok := vm.NextTimerDue()
	if !ok || due != 100 {
		t.Fatalf("NextTimerDue = %v,%v", due, ok)
	}
	clk.now = 150
	vm.DeliverTimerTicks(1)
	if len(app.timers) != 1 || app.timers[0] != "a" {
		t.Fatalf("timers %v", app.timers)
	}
	clk.now = 300
	vm.DeliverTimerTicks(1)
	if len(app.timers) != 2 || app.timers[1] != "b" {
		t.Fatalf("timers %v", app.timers)
	}
	if _, ok := vm.NextTimerDue(); ok {
		t.Fatal("timers should be drained")
	}
	s := vm.Stats()
	if s.TimerInterrupts != 2 || s.TimerCallbacks != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTimerReentrancy(t *testing.T) {
	// A timer handler arming another timer must not fire it in the same
	// delivery round unless already due.
	app := &scriptApp{}
	app.onTimer = func(c Ctx, tag string) {
		if tag == "first" {
			c.SetTimer(vtime.Virtual(1000), "second")
		}
	}
	appBoot := func(c Ctx) { c.SetTimer(0, "first") }
	app.boot = appBoot
	vm, clk := newVM(t, app)
	vm.Boot()
	clk.now = 10
	vm.DeliverTimerTicks(1)
	if len(app.timers) != 1 {
		t.Fatalf("timers fired: %v", app.timers)
	}
	clk.now = 2000
	vm.DeliverTimerTicks(1)
	if len(app.timers) != 2 || app.timers[1] != "second" {
		t.Fatalf("timers %v", app.timers)
	}
}

func TestOutputDigestDetectsDivergence(t *testing.T) {
	mk := func(data string) *VM {
		app := &scriptApp{boot: func(c Ctx) { c.Send("d", 10, data) }}
		vm, _ := newVM(t, app)
		vm.Boot()
		vm.Step(100)
		return vm
	}
	a, b, c := mk("same"), mk("same"), mk("different")
	if a.OutputDigest() != b.OutputDigest() {
		t.Fatal("identical replicas produced different digests")
	}
	if a.OutputDigest() == c.OutputDigest() {
		t.Fatal("divergent replica produced identical digest")
	}
}

func TestOutputDigestOrderSensitive(t *testing.T) {
	mk := func(first, second string) uint64 {
		app := &scriptApp{boot: func(c Ctx) {
			c.Send("d", 10, first)
			c.Send("d", 10, second)
		}}
		vm, _ := newVM(t, app)
		vm.Boot()
		vm.Step(100)
		vm.Step(100)
		return vm.OutputDigest()
	}
	if mk("a", "b") == mk("b", "a") {
		t.Fatal("digest not order sensitive")
	}
}

func TestReplicaLockstepDeterminism(t *testing.T) {
	// Two replicas of the same app, stepped with the same chunk schedule and
	// interrupt injections, must agree on every observable.
	mkApp := func() *scriptApp {
		app := &scriptApp{}
		app.boot = func(c Ctx) { c.Compute(100) }
		app.onPacket = func(c Ctx, p Payload) {
			c.Compute(int64(p.Size) * 3)
			c.Send("client", p.Size, c.Clock().Now())
		}
		return app
	}
	run := func() *VM {
		vm, clk := newVM(t, mkApp())
		vm.Boot()
		virt := vtime.Virtual(0)
		for i := 0; i < 50; i++ {
			r := vm.Step(997) // odd chunk size on purpose
			_ = r
			virt += 997
			clk.now = virt
			if i%7 == 3 {
				vm.DeliverPacket(Payload{Src: "c", Size: 100 + i, Data: i})
			}
		}
		return vm
	}
	a, b := run(), run()
	if a.OutputDigest() != b.OutputDigest() {
		t.Fatal("replicas diverged under identical schedules")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestCtxIgnoresDegenerateOps(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) {
		c.Compute(0)
		c.Compute(-5)
		c.Send("", 10, nil)
		c.Send("x", 0, nil)
		c.DiskRead("t", 0)
		c.DiskWrite("t", -1)
	}}
	vm, _ := newVM(t, app)
	vm.Boot()
	if vm.Busy() {
		t.Fatalf("degenerate ops were queued: %+v", vm.ops)
	}
}

func TestStepZeroBudget(t *testing.T) {
	app := &scriptApp{boot: func(c Ctx) { c.Compute(10) }}
	vm, _ := newVM(t, app)
	vm.Boot()
	r := vm.Step(0)
	if r.Executed != 0 || r.IO != nil || r.Idle {
		t.Fatalf("zero budget step: %+v", r)
	}
}

func TestCtxAccessors(t *testing.T) {
	var gotID string
	var tsc uint64
	app := &scriptApp{boot: func(c Ctx) {
		gotID = c.ID()
		tsc = c.Clock().TSC()
	}}
	vm, clk := newVM(t, app)
	clk.now = 100
	vm.Boot()
	if gotID != "g1" {
		t.Fatalf("id = %q", gotID)
	}
	if tsc != 300 {
		t.Fatalf("tsc = %d", tsc)
	}
}

// replyApp answers every packet with a send and every disk completion with
// another disk read, recording nothing.
type replyApp struct{}

func (replyApp) Boot(Ctx)                     {}
func (replyApp) OnPacket(c Ctx, p Payload)    { c.Compute(10); c.Send(p.Src, p.Size, p.Data) }
func (replyApp) OnDiskDone(c Ctx, d DiskDone) { c.Compute(10); c.DiskRead(d.Tag, d.Bytes) }
func (replyApp) OnTimer(c Ctx, tag string)    {}

// TestStepAllocatesNothingPerIO: a step that ends in a send or in a disk
// request hands its IOAction over in the VM's scratch, so a guest output
// costs no heap object — and the scratch carries the op, not the last one.
func TestStepAllocatesNothingPerIO(t *testing.T) {
	vm, _ := newVM(t, replyApp{})
	vm.Boot()
	var body any = "payload" // boxed once, outside the measured loop
	for _, c := range []struct {
		name   string
		inject func()
		check  func(a *IOAction) bool
	}{
		{
			"send", func() { vm.DeliverPacket(Payload{Src: "client", Size: 200, Data: body}) },
			func(a *IOAction) bool { return a.IsSend() && a.Dst == "client" && a.Size == 200 && a.Data == body },
		},
		{
			"disk", func() { vm.DeliverDisk(DiskDone{Tag: "blk", Bytes: 4096}) },
			func(a *IOAction) bool { return !a.IsSend() && a.Tag == "blk" && a.Bytes == 4096 && a.Data == nil },
		},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			c.inject()
			if r := vm.Step(1000); r.Executed != 11 || r.IO == nil || !c.check(r.IO) {
				t.Fatalf("%s: step result %+v, IO %+v", c.name, r, r.IO)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per deliver+step, want 0", c.name, allocs)
		}
	}
}

// TestOutputLogFirstDifference: two logs that part at a known output are
// named at that output, exactly while the history still holds the one
// before it, and "at or before" the oldest held output once it does not;
// logs that agree on their common prefix have no difference.
func TestOutputLogFirstDifference(t *testing.T) {
	build := func(n, partAt int, tag string) *OutputLog {
		l := newOutputLog()
		for i := 1; i <= n; i++ {
			data := "same"
			if partAt > 0 && i >= partAt {
				data = tag
			}
			l.Append(uint64(i), "client", 64, data)
		}
		return l
	}
	cases := []struct {
		name      string
		a, b      *OutputLog
		want      int
		wantExact bool
	}{
		{"identical", build(20, 0, ""), build(20, 0, ""), 0, true},
		{"prefix", build(20, 0, ""), build(25, 0, ""), 0, true},
		{"first", build(20, 1, "a"), build(20, 1, "b"), 1, true},
		{"known", build(20, 10, "a"), build(30, 10, "b"), 10, true},
		{"known-long", build(700, 650, "a"), build(700, 650, "b"), 650, true},
		{"past-history", build(605, 5, "a"), build(605, 5, "b"), 605 - digestHistory + 1, false},
	}
	for _, c := range cases {
		n, exact := c.a.FirstDifference(c.b)
		if n != c.want || exact != c.wantExact {
			t.Errorf("%s: FirstDifference = %d, %v; want %d, %v", c.name, n, exact, c.want, c.wantExact)
		}
		if m, e := c.b.FirstDifference(c.a); m != n || e != exact {
			t.Errorf("%s: not symmetric: %d, %v vs %d, %v", c.name, m, e, n, exact)
		}
	}
}
