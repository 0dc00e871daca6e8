package vmm

import (
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
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
type exitSpy struct {
	exitHandler
	see func(res guest.StepResult)
}

func (s exitSpy) exit(res guest.StepResult) {
	s.see(res)
	s.exitHandler.exit(res)
}

func spyOnExits(rt *Runtime, see func(res guest.StepResult)) {
	rt.ex.vmm = exitSpy{rt.ex.vmm, see}
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
