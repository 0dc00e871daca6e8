package controlplane

import (
	"fmt"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// lightFactory is a sustainable burst profile for detector tests: the
// default beacon's 64KB read every 4ms saturates a shared disk once two
// replicas co-reside, a regime where Dom0 delay grows without bound and no
// deadline separates slow from dead.
func lightFactory(period vtime.Virtual) func() guest.App {
	return func() guest.App {
		b := apps.NewBeaconApp(period)
		b.Compute = 500_000
		b.DiskBytes = 0
		b.Sink = "sink"
		return b
	}
}

// TestStallDetectorDrivesFailEvacuatePipeline is the automatic-detector
// acceptance test: a machine's VMM dies at the data plane with no scripted
// FailOp anywhere; the stall detector must notice the silent proposals,
// submit FailOp{Detected}, and chain the evacuation — leaving the machine
// empty and every resident re-homed and in lockstep, all on the op log.
func TestStallDetectorDrivesFailEvacuatePipeline(t *testing.T) {
	for _, seed := range []uint64{111, 113} {
		cp := newTestPlane(t, 9, 3, seed)
		c := cp.Cluster()
		if err := cp.EnableStallDetector(0); err != nil {
			t.Fatal(err)
		}
		ids := []string{"ga", "gb", "gc", "gd", "ge"}
		for _, id := range ids {
			if oc := cp.Apply(AdmitOp{GuestID: id, Factory: lightFactory(vtime.Virtual(4 * sim.Millisecond))}); oc.Err != nil {
				t.Fatal(oc.Err)
			}
		}
		c.Start()
		machine := busiestMachine(cp)
		affected := cp.Pool().Residents(machine)
		if len(affected) < 2 {
			t.Fatalf("seed %d: machine %d hosts only %v — scenario too weak", seed, machine, affected)
		}
		startPings(t, c, ids, 10*sim.Millisecond, 15*sim.Second)
		c.Loop().At(300*sim.Millisecond, "kill", func() {
			// Data-plane kill only: the VMM dies; nobody tells the control
			// plane.
			if err := c.FailMachine(machine); err != nil {
				t.Error(err)
			}
		})
		if err := c.Run(20 * sim.Second); err != nil {
			t.Fatal(err)
		}
		st := cp.Stats()
		if st.HostFailures != 1 || st.CrashEvacuations != len(affected) || st.CrashEvacuationFailures != 0 {
			t.Fatalf("seed %d: stats %+v, want %d detector-driven evacuations", seed, st, len(affected))
		}
		// The pipeline is on the log: exactly one detected FailOp (no false
		// alarms on live machines), one chained EvacuateOp, both completed.
		fails, evacs := 0, 0
		for _, oc := range cp.Log() {
			switch op := oc.Op.(type) {
			case FailOp:
				if !op.Detected {
					t.Fatalf("seed %d: scripted FailOp on the log: %s", seed, oc)
				}
				if op.Machine != machine || !oc.Done() || oc.Err != nil {
					t.Fatalf("seed %d: detected fail outcome: %s", seed, oc)
				}
				fails++
			case EvacuateOp:
				if parent, ok := cp.Outcome(oc.Seq); !ok || parent != oc {
					t.Fatalf("seed %d: log lookup broken", seed)
				}
				if !oc.Done() || oc.Err != nil {
					t.Fatalf("seed %d: evacuation outcome: %s", seed, oc)
				}
				evacs++
			}
		}
		if fails != 1 || evacs != 1 {
			t.Fatalf("seed %d: %d detected fails, %d evacuations on the log", seed, fails, evacs)
		}
		if !cp.Failed(machine) {
			t.Fatalf("seed %d: machine %d not marked failed", seed, machine)
		}
		if got := cp.Pool().Residents(machine); len(got) != 0 {
			t.Fatalf("seed %d: dead machine still hosts %v", seed, got)
		}
		for _, id := range affected {
			g, _ := c.Guest(id)
			if g.Replaced == 0 {
				t.Fatalf("seed %d: guest %s was never re-homed", seed, id)
			}
			if err := g.CheckLockstepPrefix(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if err := cp.Verify(); err != nil {
			t.Fatal(err)
		}
		// Repair re-arms detection: an empty machine stalls nobody, so give
		// the repaired machine a fresh resident (least-loaded placement
		// lands its triangle there), then kill it again — the second death
		// must be detected too.
		if oc := cp.Apply(RepairOp{Machine: machine}); oc.Err != nil {
			t.Fatal(oc.Err)
		}
		fresh := cp.Apply(AdmitOp{GuestID: "gz", Factory: lightFactory(vtime.Virtual(4 * sim.Millisecond))})
		if fresh.Err != nil {
			t.Fatal(fresh.Err)
		}
		if !fresh.Triangle.Contains(machine) {
			t.Fatalf("seed %d: fresh guest placed on %v, not the empty machine %d", seed, fresh.Triangle, machine)
		}
		now := c.Loop().Now()
		c.Loop().At(now+300*sim.Millisecond, "rekill", func() {
			if err := c.FailMachine(machine); err != nil {
				t.Error(err)
			}
		})
		startPings(t, c, append(ids, "gz"), 10*sim.Millisecond, now+4*sim.Second)
		if err := c.Run(now + 5*sim.Second); err != nil {
			t.Fatal(err)
		}
		if cp.Stats().HostFailures != 2 {
			t.Fatalf("seed %d: repaired machine's second death not detected: %+v", seed, cp.Stats())
		}
	}
}

// TestStallDetectorFalseAlarmIsRejectedAndRecoverable: suspecting a live
// machine must reject the FailOp (on the log, never executed) and leave
// the machine detectable for a later genuine crash.
func TestStallDetectorFalseAlarmIsRejectedAndRecoverable(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 117)
	c := cp.Cluster()
	if err := cp.EnableStallDetector(0); err != nil {
		t.Fatal(err)
	}
	if oc := cp.Apply(AdmitOp{GuestID: "ga", Factory: lightFactory(vtime.Virtual(4 * sim.Millisecond))}); oc.Err != nil {
		t.Fatal(oc.Err)
	}
	tri, _ := cp.Pool().Triangle("ga")
	c.Start()
	// A spurious suspicion (as a pathologically slow Dom0 would produce).
	cp.suspectMachine(tri[0])
	log := cp.Log()
	last := log[len(log)-1]
	op, ok := last.Op.(FailOp)
	if !ok || !op.Detected || !last.Rejected() {
		t.Fatalf("false alarm not on the log as a rejected detected FailOp: %s", last)
	}
	if cp.Failed(tri[0]) || c.Host(tri[0]).Failed() {
		t.Fatal("false alarm executed the kill")
	}
	// The genuine crash of the same machine is still detected, and failed.
	startPings(t, c, []string{"ga"}, 10*sim.Millisecond, 5*sim.Second)
	c.Loop().At(300*sim.Millisecond, "kill", func() {
		if err := c.FailMachine(tri[0]); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(8 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if cp.Stats().HostFailures != 1 || !cp.Failed(tri[0]) || !cp.Pool().Drained(tri[0]) {
		t.Fatalf("genuine crash after false alarm not detected: %+v", cp.Stats())
	}
}

// TestSilentMachineIsFoundOnlyByAnAdmission pins a specified degraded mode
// (ROADMAP item 3, F4): the sweep reads pending proposals, so a machine whose
// residents get no inbound traffic dies unnoticed — for a whole second
// here, nothing is suspected. The first admission the pool places on it is
// refused (core.HostFailedError), and that refusal is the detection: the
// detected FailOp is submitted at the admission's instant, the tenant lands
// without the machine, and the chained evacuation re-homes the silent
// resident. A fix for F4 detects the crash before the admission and flips
// the first half of this test.
func TestSilentMachineIsFoundOnlyByAnAdmission(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 121)
	c := cp.Cluster()
	if err := cp.EnableStallDetector(0); err != nil {
		t.Fatal(err)
	}
	quiet := cp.Apply(AdmitOp{GuestID: "quiet", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))})
	if quiet.Err != nil {
		t.Fatal(quiet.Err)
	}
	dead := quiet.Triangle[0]
	c.Start()
	c.Loop().At(100*sim.Millisecond, "kill", func() {
		if err := c.FailMachine(dead); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(1100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := cp.Stats(); st.HostFailures != 0 || st.DetectorSuspicions != 0 || cp.Failed(dead) {
		t.Fatalf("a silent machine was suspected: %+v", st)
	}
	// Admit until a placement lands on the dead machine.
	for i := 0; !cp.Failed(dead); i++ {
		if i == 4 {
			t.Fatalf("four admissions and none placed on machine %d:\n%s", dead, FormatLog(cp.Log()))
		}
		n := len(cp.Log())
		oc := cp.Apply(AdmitOp{GuestID: fmt.Sprintf("t%d", i), Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))})
		if oc.Err != nil || oc.Triangle.Contains(dead) {
			t.Fatalf("admission %s", oc)
		}
		if !cp.Failed(dead) {
			continue
		}
		log := cp.Log()
		if len(log) < n+2 || log[n+1].Op.String() != fmt.Sprintf("fail %d (detected)", dead) ||
			log[n+1].Rejected() || log[n+1].Submitted != oc.Submitted {
			t.Fatalf("the refusal did not submit the detected fail:\n%s", FormatLog(log))
		}
	}
	if err := c.Run(c.Loop().Now() + sim.Second); err != nil {
		t.Fatal(err)
	}
	if st := cp.Stats(); st.HostFailures != 1 || st.CrashEvacuations != 1 || st.CrashEvacuationFailures != 0 {
		t.Fatalf("stats %+v, want the silent resident evacuated", st)
	}
	if tri, _ := cp.Pool().Triangle("quiet"); tri.Contains(dead) {
		t.Fatalf("quiet still on %v", tri)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEnableStallDetectorValidation pins the argument checks.
func TestEnableStallDetectorValidation(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 119)
	if err := cp.EnableStallDetector(-1); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if err := cp.Cluster().SetStallDetector(0, func(int) {}); err == nil {
		t.Fatal("zero deadline accepted by the cluster")
	}
	if err := cp.Cluster().SetStallDetector(sim.Millisecond, nil); err == nil {
		t.Fatal("nil suspect callback accepted")
	}
	if err := cp.EnableStallDetector(0); err != nil {
		t.Fatal(err)
	}
}
