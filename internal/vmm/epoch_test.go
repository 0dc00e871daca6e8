package vmm

import (
	"errors"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// buildEpochSet wires three runtimes with epoch coordinators exchanging
// samples on their pacing beacons over loop-delayed links, the way the
// cluster does, under an installed three-member group.
func buildEpochSet(t *testing.T, interval int64) (*sim.Loop, []*Runtime, []*EpochCoordinator) {
	t.Helper()
	loop := sim.NewLoop()
	src := sim.NewSource(123)
	// Distinct base rates: replicas progress at very different real speeds,
	// so the barrier is actually exercised.
	rates := []int64{1_000_000_000, 1_400_000_000, 800_000_000}
	var rts []*Runtime
	var ecs []*EpochCoordinator
	for i := 0; i < 3; i++ {
		cfg := DefaultConfig()
		cfg.BaseRate = rates[i]
		// Disable pacing interference for a focused epoch test.
		cfg.MaxLead = vtime.Virtual(sim.Second)
		h, err := NewHost([]string{"A", "B", "C"}[i], loop, src.Stream("h"+string(rune('A'+i))), sim.NewClock(sim.Time(i)*sim.Millisecond, float64(i)*1e-5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0, sim.Millisecond, 2 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
		ec, err := NewEpochCoordinator(rt, interval)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetView(1, []string{"A", "B", "C"})
		rts = append(rts, rt)
		ecs = append(ecs, ec)
	}
	for i, rt := range rts {
		origin := rt.Host().Name()
		rt.OnPace = PaceSinkFunc(func(v vtime.Virtual, epoch int64, s vtime.EpochSample) {
			for j, p := range rts {
				if j != i {
					loop.After(300*sim.Microsecond, "pace", func() {
						p.OnPeerVirt(origin, v)
						ecs[j].OnPeerSample(origin, epoch, s)
					})
				}
			}
		})
	}
	return loop, rts, ecs
}

func TestEpochCoordinatorValidation(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(1)
	h := testHost(t, "h", loop, src, 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEpochCoordinator(nil, 1000); !errors.Is(err, ErrVMM) {
		t.Fatal("nil runtime should fail")
	}
	if _, err := NewEpochCoordinator(rt, 0); !errors.Is(err, ErrVMM) {
		t.Fatal("zero interval should fail")
	}
	if _, err := NewEpochCoordinator(rt, h.Config().ExitEvery+1); !errors.Is(err, ErrVMM) {
		t.Fatal("non-multiple interval should fail")
	}
}

// The barrier completes against the installed view only: a replica started
// before SetView holds at its first boundary, and installing the view
// releases it.
func TestEpochBarrierWaitsForGroup(t *testing.T) {
	const interval = 10_000_000
	loop := sim.NewLoop()
	h := testHost(t, "A", loop, sim.NewSource(1), 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0})
	if err != nil {
		t.Fatal(err)
	}
	ec, err := NewEpochCoordinator(rt, interval)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := loop.RunUntil(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ec.Adjustments() != 0 || rt.Instr() != interval {
		t.Fatalf("before SetView: %d adjustments at instr %d, want 0 at %d", ec.Adjustments(), rt.Instr(), interval)
	}
	rt.SetView(1, []string{"A"})
	if err := loop.RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ec.Adjustments() < 3 {
		t.Fatalf("after SetView: %d adjustments", ec.Adjustments())
	}
}

// An epoch's samples, barrier and adjustment reuse the coordinator's
// buffers — repeated samples, and a peer's sample for the next epoch that
// arrives before this one completes, included.
func TestEpochAdjustmentAllocatesNothing(t *testing.T) {
	loop := sim.NewLoop()
	h := testHost(t, "A", loop, sim.NewSource(1), 0, 0)
	rt, err := NewRuntime(h, "g", &recordApp{}, []sim.Time{0})
	if err != nil {
		t.Fatal(err)
	}
	ec, err := NewEpochCoordinator(rt, h.Config().ExitEvery)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetView(1, []string{"A", "B"})
	s := vtime.EpochSample{D: sim.Millisecond, R: 5 * sim.Millisecond}
	runs := 0
	allocs := testing.AllocsPerRun(100, func() {
		runs++
		ec.OnPeerSample("B", ec.epoch+1, s) // a peer one epoch ahead
		ec.sample(s)
		ec.OnPeerSample("B", ec.epoch, s) // a repeat: first write wins
	})
	if allocs != 0 {
		t.Fatalf("an epoch allocates %v times", allocs)
	}
	if ec.Adjustments() != runs {
		t.Fatalf("%d adjustments over %d epochs", ec.Adjustments(), runs)
	}
}

func TestEpochAdjustmentsKeepReplicasIdentical(t *testing.T) {
	const interval = 10_000_000 // 40 exits per epoch
	loop, rts, ecs := buildEpochSet(t, interval)
	for _, rt := range rts {
		rt.Start()
	}
	if err := loop.RunUntil(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Several epochs must have been applied on every replica.
	for i, ec := range ecs {
		if ec.Adjustments() < 3 {
			t.Fatalf("replica %d applied %d adjustments", i, ec.Adjustments())
		}
		if ec.Adjustments() != ecs[0].Adjustments() && absInt(ec.Adjustments()-ecs[0].Adjustments()) > 1 {
			t.Fatalf("adjustment counts diverged: %d vs %d", ec.Adjustments(), ecs[0].Adjustments())
		}
	}
	// The virtual clocks must agree exactly at any common instruction count
	// (take the minimum progress across replicas).
	minInstr := rts[0].Instr()
	for _, rt := range rts[1:] {
		if rt.Instr() < minInstr {
			minInstr = rt.Instr()
		}
	}
	// Probe a few instruction counts at or below the common progress that
	// are covered by the same number of applied epochs on all replicas.
	common := ecs[0].Adjustments()
	for _, ec := range ecs[1:] {
		if ec.Adjustments() < common {
			common = ec.Adjustments()
		}
	}
	probe := int64(common) * interval // end of last commonly-applied epoch
	if probe > minInstr {
		probe = minInstr
	}
	v0 := rts[0].vclock.At(probe)
	for i, rt := range rts[1:] {
		if rt.vclock.At(probe) != v0 {
			t.Fatalf("replica %d virtual clock diverged at instr %d: %v vs %v",
				i+1, probe, rt.vclock.At(probe), v0)
		}
	}
}

func TestEpochBarrierHoldsFastReplica(t *testing.T) {
	const interval = 10_000_000
	loop, rts, _ := buildEpochSet(t, interval)
	for _, rt := range rts {
		rt.Start()
	}
	// Run briefly: the fast replica (B, 1.4e9/s) must not be a full epoch
	// ahead of the slow one (C, 0.8e9/s) despite the 1.75x speed gap.
	if err := loop.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var minI, maxI int64
	for i, rt := range rts {
		in := rt.Instr()
		if i == 0 || in < minI {
			minI = in
		}
		if i == 0 || in > maxI {
			maxI = in
		}
	}
	if maxI-minI > interval+int64(DefaultConfig().ExitEvery) {
		t.Fatalf("epoch barrier leaked: spread %d instructions (> one epoch)", maxI-minI)
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
