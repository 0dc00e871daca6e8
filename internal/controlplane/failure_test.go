package controlplane

import (
	"errors"
	"testing"

	"stopwatch/internal/core"
	"stopwatch/internal/netsim"
	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// startPings wires a probe client into the fabric and sends a ping to every
// listed guest each interval until `until` — live inbound traffic keeps the
// proposal/median path busy, so a crashed machine leaves genuinely wedged
// delivery proposals for the reconfiguration to unwedge.
func startPings(t *testing.T, c *core.Cluster, ids []string, every, until sim.Time) {
	t.Helper()
	if err := c.Net().Attach(&netsim.FuncNode{Addr: "probe", Fn: func(p *netsim.Packet) {}}); err != nil {
		t.Fatal(err)
	}
	var tick func()
	tick = func() {
		if c.Loop().Now() >= until {
			return
		}
		for _, id := range ids {
			c.Net().Send(&netsim.Packet{Src: "probe", Dst: core.ServiceAddr(id), Size: 128, Kind: "ping"})
		}
		c.Loop().After(every, "ping", tick)
	}
	c.Loop().At(100*sim.Millisecond, "ping", tick)
}

// TestEvacuateFailedHostRecoversEveryResident is the crashed-machine
// property test, mirroring the drain property test: kill a machine hosting
// >= 2 guests mid-traffic, reconfigure and evacuate, and require that every
// resident is re-placed, edges are conserved, lockstep digests match, and
// no barrier ever abandons via maxDrainAttempts (the quiescence leak).
func TestEvacuateFailedHostRecoversEveryResident(t *testing.T) {
	for _, seed := range []uint64{51, 53, 57} {
		cp := newTestPlane(t, 9, 3, seed)
		c := cp.Cluster()
		ids := []string{"ga", "gb", "gc", "gd", "ge"}
		for _, id := range ids {
			if err := cp.Apply(AdmitOp{GuestID: id, Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}).Err; err != nil {
				t.Fatal(err)
			}
		}
		c.Start()
		// The machine hosting the most guests: the interesting failure.
		machine := 0
		for m := 1; m < 9; m++ {
			if len(cp.Pool().Residents(m)) > len(cp.Pool().Residents(machine)) {
				machine = m
			}
		}
		affected := cp.Pool().Residents(machine)
		if len(affected) < 2 {
			t.Fatalf("seed %d: machine %d hosts only %v — scenario too weak", seed, machine, affected)
		}
		startPings(t, c, ids, 10*sim.Millisecond, 15*sim.Second)
		var evacErr error
		evacDone := false
		c.Loop().At(300*sim.Millisecond, "crash", func() {
			if oc := cp.Apply(FailOp{Machine: machine}); oc.Rejected() {
				t.Errorf("FailOp: %v", oc.Err)
			}
			if !cp.Failed(machine) || !cp.Pool().Drained(machine) {
				t.Error("failed machine not marked failed+drained")
			}
			if err := cp.Verify(); err != nil {
				t.Errorf("after FailOp: %v", err)
			}
			if oc := cp.Apply(EvacuateOp{Machine: machine, Done: func(oc *Outcome) {
				evacErr, evacDone = oc.Err, true
			}}); oc.Rejected() {
				t.Errorf("EvacuateOp: %v", oc.Err)
			}
		})
		if err := c.Run(20 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if !evacDone {
			t.Fatalf("seed %d: evacuation never completed", seed)
		}
		if evacErr != nil {
			t.Fatalf("seed %d: evacuation errors: %v", seed, evacErr)
		}
		// Every resident is re-placed off the dead machine.
		if l := cp.Pool().Load(machine); l != 0 {
			t.Fatalf("seed %d: dead machine still has load %d", seed, l)
		}
		if got := cp.Pool().Residents(machine); len(got) != 0 {
			t.Fatalf("seed %d: dead machine still hosts %v", seed, got)
		}
		for _, id := range ids {
			g, ok := c.Guest(id)
			if !ok {
				t.Fatalf("seed %d: guest %s missing", seed, id)
			}
			for _, h := range g.HostIndexes() {
				if h == machine {
					t.Fatalf("seed %d: guest %s still deployed on dead machine %d", seed, id, machine)
				}
			}
		}
		// Edge conservation and pool/cluster agreement.
		if err := cp.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cp.Pool().EdgesUsed() != 3*cp.Pool().Guests() {
			t.Fatalf("seed %d: %d edges for %d guests", seed, cp.Pool().EdgesUsed(), cp.Pool().Guests())
		}
		// Every affected guest is fully repaired and back in lockstep, and
		// its ingress replication group has three live members again, none
		// of them the dead machine's Dom0.
		deadDom0 := netsim.Addr("dom0:" + c.Host(machine).Name())
		for _, id := range affected {
			g, _ := c.Guest(id)
			if err := g.CheckLockstepPrefix(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if g.Replaced == 0 {
				t.Fatalf("seed %d: guest %s was never re-homed", seed, id)
			}
			group, err := c.Ingress().Group(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(group) != 3 {
				t.Fatalf("seed %d: guest %s replication group %v after repair", seed, id, group)
			}
			for _, a := range group {
				if a == deadDom0 {
					t.Fatalf("seed %d: guest %s still replicates to dead %s", seed, id, deadDom0)
				}
			}
		}
		// No barrier abandoned: the quiescence leak would show up here as
		// maxDrainAttempts failures.
		st := cp.Stats()
		if st.HostFailures != 1 || st.CrashEvacuations != len(affected) ||
			st.CrashEvacuationFailures != 0 || st.ReplacementFailures != 0 {
			t.Fatalf("seed %d: stats %+v, want %d clean crash evacuations", seed, st, len(affected))
		}
		// Repair returns the machine: a new tenant can land on it.
		if err := cp.Apply(UndrainOp{Machine: machine}).Err; err == nil {
			t.Fatalf("seed %d: UndrainOp accepted a crashed machine", seed)
		}
		if err := cp.Apply(RepairOp{Machine: machine}).Err; err != nil {
			t.Fatal(err)
		}
		if err := cp.Apply(AdmitOp{GuestID: "fresh", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}).Err; err != nil {
			t.Fatalf("seed %d: admit after repair: %v", seed, err)
		}
		if err := cp.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailHostSaturatedDegradesTwoOfThree: at utilization 1.0 a crashed
// replica has nowhere to go — the evacuation must fail typed with
// ErrNoFeasibleHost while the guest keeps serving on its live pair: new
// packets still resolve (the degraded live-set median), and the live pair
// stays in lockstep with the dead slot excluded.
func TestFailHostSaturatedDegradesTwoOfThree(t *testing.T) {
	cp := newTestPlane(t, 6, 1, 61)
	c := cp.Cluster()
	for _, id := range []string{"g0", "g1"} {
		if err := cp.Apply(AdmitOp{GuestID: id, Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}).Err; err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	startPings(t, c, []string{"g0", "g1"}, 10*sim.Millisecond, 9*sim.Second)
	g, _ := c.Guest("g0")
	tri, _ := cp.Pool().Triangle("g0")
	machine := tri[0]
	deadSlot, _ := g.SlotOnHost(machine)
	var resolvedAtCrash uint64
	var evacErr error
	evacDone := false
	c.Loop().At(300*sim.Millisecond, "crash", func() {
		if oc := cp.Apply(FailOp{Machine: machine}); oc.Rejected() {
			t.Errorf("FailOp: %v", oc.Err)
		}
		for _, r := range g.Replicas() {
			if r.Slot() != deadSlot {
				resolvedAtCrash = r.NetDev().Resolved()
				break
			}
		}
		if oc := cp.Apply(EvacuateOp{Machine: machine, Done: func(oc *Outcome) { evacErr, evacDone = oc.Err, true }}); oc.Rejected() {
			t.Errorf("EvacuateOp: %v", oc.Err)
		}
	})
	if err := c.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !evacDone {
		t.Fatal("evacuation never completed")
	}
	if !errors.Is(evacErr, placement.ErrNoFeasibleHost) {
		t.Fatalf("want ErrNoFeasibleHost, got %v", evacErr)
	}
	if st := cp.Stats(); st.CrashEvacuationFailures != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The guest still holds its (degraded) triangle and serves on the pair;
	// the ingress replicates to the live pair only.
	if curTri, ok := cp.Pool().Triangle("g0"); !ok || curTri != tri {
		t.Fatalf("degraded guest lost its triangle: %v", curTri)
	}
	group, err := c.Ingress().Group("g0")
	if err != nil {
		t.Fatal(err)
	}
	deadDom0 := netsim.Addr("dom0:" + c.Host(machine).Name())
	if len(group) != 2 {
		t.Fatalf("degraded replication group %v, want the live pair", group)
	}
	for _, a := range group {
		if a == deadDom0 {
			t.Fatalf("degraded group still replicates to dead %s", deadDom0)
		}
	}
	if err := g.CheckLockstepPrefixExcluding(deadSlot); err != nil {
		t.Fatal(err)
	}
	// The inbound path is unwedged: the live pair kept resolving medians
	// after the crash (before the live-group view this stalled forever).
	for _, r := range g.Replicas() {
		if r.Slot() == deadSlot {
			continue
		}
		if r.NetDev().Resolved() <= resolvedAtCrash {
			t.Fatalf("slot %d stopped resolving after the crash (%d)", r.Slot(), r.NetDev().Resolved())
		}
		if r.NetDev().Pending() > 0 {
			t.Fatalf("slot %d wedged with %d pending proposals", r.Slot(), r.NetDev().Pending())
		}
	}
	// Repair must refuse while the degraded guest still sits on the dead
	// machine: reviving it would resurrect the zombie replica (permanently
	// closed proposal sender) into quiescence checks and live views.
	if err := cp.Apply(RepairOp{Machine: machine}).Err; err == nil {
		t.Fatal("RepairOp accepted a machine with un-evacuated residents")
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairHostPreservesMaintenanceDrain: a machine the operator drained
// before its VMM crashed must stay drained across the crash and repair —
// repair restores the machine, not the operator's intent.
func TestRepairHostPreservesMaintenanceDrain(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 67)
	drained := false
	if oc := cp.Apply(DrainOp{Machine: 2, Done: func(oc *Outcome) {
		if oc.Err != nil {
			t.Errorf("drain: %v", oc.Err)
		}
		drained = true
	}}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	if !drained { // no residents: the drain completes synchronously
		t.Fatal("drain incomplete")
	}
	if oc := cp.Apply(FailOp{Machine: 2}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	if err := cp.Apply(RepairOp{Machine: 2}).Err; err != nil {
		t.Fatal(err)
	}
	if !cp.Pool().Drained(2) {
		t.Fatal("repair discarded the pre-crash maintenance drain")
	}
	if err := cp.Apply(UndrainOp{Machine: 2}).Err; err != nil {
		t.Fatal(err)
	}
	if cp.Pool().Drained(2) {
		t.Fatal("undrain after repair failed")
	}
}

// TestFailHostValidation covers the failure-domain state machine's edges.
func TestFailHostValidation(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 63)
	if oc := cp.Apply(FailOp{Machine: 7}); !oc.Rejected() {
		t.Fatal("out-of-range machine accepted")
	}
	if oc := cp.Apply(EvacuateOp{Machine: 0}); !oc.Rejected() {
		t.Fatal("evacuating a healthy machine accepted")
	}
	if err := cp.Apply(RepairOp{Machine: 0}).Err; err == nil {
		t.Fatal("repairing a healthy machine accepted")
	}
	if oc := cp.Apply(FailOp{Machine: 0}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	if oc := cp.Apply(FailOp{Machine: 0}); !oc.Rejected() {
		t.Fatal("double failure accepted")
	}
	if oc := cp.Apply(DrainOp{Machine: 0}); !oc.Rejected() {
		t.Fatal("draining a crashed machine accepted")
	}
	if !cp.Failed(0) || cp.Failed(1) {
		t.Fatal("Failed() bookkeeping wrong")
	}
	if err := cp.Apply(RepairOp{Machine: 0}).Err; err != nil {
		t.Fatal(err)
	}
	if cp.Failed(0) {
		t.Fatal("repair left the machine failed")
	}
	// A reconfiguration closure from the repaired (ended) first failure
	// epoch must not open a later epoch's evacuation gate early. Fail the
	// machine again 2/5 of a drain window later: the first epoch's closure
	// fires at +1 window (stale — must be ignored), the second epoch's at
	// +7/5 windows; a probe between the two must find the gate shut.
	loop := cp.Cluster().Loop()
	w := drainWindow
	base := loop.Now()
	loop.At(base+2*w/5, "refail", func() {
		if oc := cp.Apply(FailOp{Machine: 0}); oc.Rejected() {
			t.Error(oc.Err)
		}
	})
	loop.At(base+6*w/5, "probe", func() {
		if f := cp.failures[0]; f == nil || f.reconfigured {
			t.Error("stale failure-epoch closure opened the evacuation gate early")
		}
	})
	if err := cp.Cluster().Run(base + 10*w); err != nil {
		t.Fatal(err)
	}
	if f := cp.failures[0]; f == nil || !f.reconfigured {
		t.Fatal("current epoch's reconfiguration never fired")
	}
	if err := cp.Apply(RepairOp{Machine: 0}).Err; err != nil {
		t.Fatal(err)
	}
	// A repaired machine drains normally again.
	if oc := cp.Apply(DrainOp{Machine: 0}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
}

// TestSingleSurvivorEgressKeepsForwarding: a guest reduced to ONE live
// replica (two machines of its triangle crash) keeps serving externally —
// the egress's per-guest live view forwards its output at the sole copy
// instead of waiting forever for a second emission (the ROADMAP's
// single-survivor open item).
func TestSingleSurvivorEgressKeepsForwarding(t *testing.T) {
	cp := newTestPlane(t, 6, 1, 71)
	c := cp.Cluster()
	if err := c.Net().Attach(&netsim.FuncNode{Addr: "sink", Fn: func(*netsim.Packet) {}}); err != nil {
		t.Fatal(err)
	}
	// Saturate the pool so evacuations are infeasible and the guest stays
	// degraded in place.
	for _, id := range []string{"g0", "g1"} {
		if oc := cp.Apply(AdmitOp{GuestID: id, Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}); oc.Err != nil {
			t.Fatal(oc.Err)
		}
	}
	c.Start()
	g, _ := c.Guest("g0")
	tri, _ := cp.Pool().Triangle("g0")
	var atOneDead, atTwoDead uint64
	c.Loop().At(300*sim.Millisecond, "crash-1", func() {
		atOneDead = c.Egress().Forwarded()
		if oc := cp.Apply(FailOp{Machine: tri[0]}); oc.Rejected() {
			t.Errorf("fail 1: %v", oc.Err)
		}
	})
	c.Loop().At(2*sim.Second, "crash-2", func() {
		atTwoDead = c.Egress().Forwarded()
		if atTwoDead <= atOneDead {
			t.Error("degraded pair stopped forwarding")
		}
		if oc := cp.Apply(FailOp{Machine: tri[1]}); oc.Rejected() {
			t.Errorf("fail 2: %v", oc.Err)
		}
	})
	if err := c.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// The sole survivor kept executing (its beacon needs no inbound) and
	// its outputs reached the sink at the single live copy.
	if got := c.Egress().Forwarded(); got <= atTwoDead {
		t.Fatalf("single survivor's output wedged: forwarded %d at two-dead, %d at end", atTwoDead, got)
	}
	live := -1
	for _, r := range g.Replicas() {
		if !r.Runtime().Stopped() {
			live = r.Slot()
		}
	}
	if live < 0 {
		t.Fatal("no live replica left")
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}
