package controlplane

import (
	"errors"
	"fmt"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

func newTestPlane(t *testing.T, hosts, capacity int, seed uint64) *ControlPlane {
	t.Helper()
	cfg := core.DefaultClusterConfig()
	cfg.Seed = seed
	cfg.Hosts = hosts
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := New(c, DefaultConfig(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func beaconFactory(period vtime.Virtual) func() guest.App {
	return func() guest.App {
		b := apps.NewBeaconApp(period)
		b.Sink = "sink"
		return b
	}
}

func TestAdmitEvictReadmitPreservesInvariants(t *testing.T) {
	cp := newTestPlane(t, 9, 2, 3)
	// Admit until the pool rejects.
	var resident []string
	for i := 0; ; i++ {
		id := fmt.Sprintf("g%d", i)
		err := cp.Apply(AdmitOp{GuestID: id, Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err
		if errors.Is(err, ErrRejected) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		resident = append(resident, id)
		if err := cp.Verify(); err != nil {
			t.Fatalf("after admitting %s: %v", id, err)
		}
	}
	if len(resident) < 4 {
		t.Fatalf("only %d guests fit on 9 hosts at capacity 2", len(resident))
	}
	if cp.Utilization() <= 0 {
		t.Fatal("utilization not tracked")
	}
	// Evict half, readmit: the freed edges must be reusable.
	evicted := 0
	for i := 0; i < len(resident); i += 2 {
		if err := cp.Apply(EvictOp{GuestID: resident[i]}).Err; err != nil {
			t.Fatal(err)
		}
		evicted++
		if err := cp.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	readmitted := 0
	for i := 0; i < evicted; i++ {
		id := fmt.Sprintf("re%d", i)
		if err := cp.Apply(AdmitOp{GuestID: id, Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
			if errors.Is(err, ErrRejected) {
				break
			}
			t.Fatal(err)
		}
		readmitted++
		if err := cp.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if readmitted == 0 {
		t.Fatal("no guest could be readmitted into freed capacity")
	}
	st := cp.Stats()
	if st.Admitted != len(resident)+readmitted || st.Rejected == 0 || st.Evicted != evicted {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOnlineAdmissionBootsIntoRunningCluster(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 5)
	c := cp.Cluster()
	if err := cp.Apply(AdmitOp{GuestID: "early", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	c.Start()
	// Admitted mid-run: must boot immediately and reach lockstep.
	c.Loop().At(200*sim.Millisecond, "admit", func() {
		if err := cp.Apply(AdmitOp{GuestID: "late", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}).Err; err != nil {
			t.Fatal(err)
		}
	})
	// Evicted mid-run: outputs must stop and the slot must free.
	c.Loop().At(600*sim.Millisecond, "evict", func() {
		g, _ := c.Guest("early")
		if err := g.CheckLockstepPrefix(); err != nil {
			t.Errorf("pre-evict lockstep: %v", err)
		}
		if err := cp.Apply(EvictOp{GuestID: "early"}).Err; err != nil {
			t.Fatal(err)
		}
	})
	if err := c.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	late, ok := c.Guest("late")
	if !ok {
		t.Fatal("late guest missing")
	}
	if n := late.Replica(0).Runtime().VM().OutputCount(); n == 0 {
		t.Fatal("late-admitted guest never ran")
	}
	if err := late.CheckLockstepPrefix(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Guest("early"); ok {
		t.Fatal("evicted guest still deployed")
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceReplicaProtocol(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 7)
	c := cp.Cluster()
	oc := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(3 * sim.Millisecond))})
	g, tri, err := oc.Guest, oc.Triangle, oc.Err
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	deadHost := tri[1]
	deadRT, onHost := g.SlotOnHost(deadHost)
	if !onHost {
		t.Fatal("dead host not in guest")
	}
	var result error
	doneAt := sim.Time(-1)
	c.Loop().At(300*sim.Millisecond, "fail", func() {
		g.Replica(deadRT).Runtime().Stop() // crash the replica
		if oc := cp.Apply(ReplaceOp{GuestID: "web", DeadHost: deadHost, Done: func(oc *Outcome) {
			result = oc.Err
			doneAt = c.Loop().Now()
		}}); oc.Rejected() {
			t.Fatal(oc.Err)
		}
		// Lifecycle exclusivity while the replacement is in flight.
		if err := cp.Apply(EvictOp{GuestID: "web"}).Err; err == nil {
			t.Error("evict during replacement should fail")
		}
	})
	if err := c.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt < 0 {
		t.Fatal("replacement never completed")
	}
	if result != nil {
		t.Fatalf("replacement failed: %v", result)
	}
	if cp.Stats().Replacements != 1 {
		t.Fatalf("stats: %+v", cp.Stats())
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
	newTri, _ := cp.Pool().Triangle("web")
	if newTri == tri {
		t.Fatal("pool triangle unchanged by replacement")
	}
	for _, h := range g.HostIndexes() {
		if h == deadHost {
			t.Fatalf("dead host %d still in %v", deadHost, g.HostIndexes())
		}
	}
	if err := g.CheckLockstepPrefix(); err != nil {
		t.Fatal(err)
	}
	// The guest survives eviction after replacement (wiring fully sane).
	if err := cp.Apply(EvictOp{GuestID: "web"}).Err; err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceReplicaValidation(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 9)
	if oc := cp.Apply(ReplaceOp{GuestID: "ghost", DeadHost: 0}); !oc.Rejected() {
		t.Fatal("unknown guest accepted")
	}
	if err := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	tri, _ := cp.Pool().Triangle("web")
	off := 0
	for h := 0; h < 7; h++ {
		if h != tri[0] && h != tri[1] && h != tri[2] {
			off = h
			break
		}
	}
	if oc := cp.Apply(ReplaceOp{GuestID: "web", DeadHost: off}); !oc.Rejected() {
		t.Fatal("replica on non-member host accepted")
	}
}

// TestReplaceReplicaRollbackRestoresPool drives the barrier's rollback path
// for both place steps: the destination — the machine a replacement's
// Rehome will scan to, or the one a migration pins — is killed at the data
// plane behind the control plane's back (core.FailMachine, no FailOp — the
// pool never learns) once the op has passed validation, so the switchover
// is guaranteed to fail after the pool has already re-homed, and the
// control plane must restore the original triangle, report the failure
// (with any rollback error joined in, never swallowed), and leave pool and
// cluster coherent under Verify.
func TestReplaceReplicaRollbackRestoresPool(t *testing.T) {
	for _, tc := range []struct {
		name     string
		op       func(from, to int, done func(*Outcome)) Op
		failures func(Stats) int
	}{
		{"replace", func(from, _ int, done func(*Outcome)) Op {
			return ReplaceOp{GuestID: "web", DeadHost: from, Done: done}
		}, func(st Stats) int { return st.ReplacementFailures }},
		{"migrate", func(from, to int, done func(*Outcome)) Op {
			return MigrateOp{GuestID: "web", From: from, To: to, Done: done}
		}, func(st Stats) int { return st.MigrationFailures }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultClusterConfig()
			cfg.Seed = 67
			cfg.Hosts = 7
			cfg.VMM.EpochInstr = 2 * cfg.VMM.ExitEvery
			c, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := New(c, DefaultConfig(3))
			if err != nil {
				t.Fatal(err)
			}
			oc := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))})
			g, tri, err := oc.Guest, oc.Triangle, oc.Err
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			var result error
			done := false
			c.Loop().At(300*sim.Millisecond, "fail", func() {
				// Rehome scans least-loaded-first with the index as
				// tie-break, so it will pick the lowest-index non-member —
				// the machine the migration names too.
				off := 0
				for h := 0; h < 7; h++ {
					if !tri.Contains(h) {
						off = h
						break
					}
				}
				slot, _ := g.SlotOnHost(tri[0])
				g.Replica(slot).Runtime().Stop()
				if oc := cp.Apply(tc.op(tri[0], off, func(oc *Outcome) { result, done = oc.Err, true })); oc.Rejected() {
					t.Error(oc.Err)
				}
				if err := c.FailMachine(off); err != nil {
					t.Error(err)
				}
			})
			if err := c.Run(5 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if !done {
				t.Fatal("move never finished")
			}
			if result == nil {
				t.Fatal("switchover onto a dead machine should have failed")
			}
			if errors.Is(result, placement.ErrNoFeasibleHost) {
				t.Fatalf("wrong failure: %v", result)
			}
			if got, _ := cp.Pool().Triangle("web"); got != tri {
				t.Fatalf("rollback did not restore the triangle: %v != %v", got, tri)
			}
			if n := tc.failures(cp.Stats()); n != 1 {
				t.Fatalf("%d barrier failures in %+v", n, cp.Stats())
			}
			if err := cp.Verify(); err != nil {
				t.Fatalf("pool/cluster diverged after rollback: %v", err)
			}
		})
	}
}

// TestVerifyCatchesPoolClusterDivergence pins the audit a swallowed
// rollback error used to escape: a guest the cluster runs but the pool lost
// (the exact state a failed rollback restore leaves) must fail Verify.
func TestVerifyCatchesPoolClusterDivergence(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 69)
	if err := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
	tri, _ := cp.Pool().Triangle("web")
	if _, err := cp.Pool().Release("web"); err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err == nil {
		t.Fatal("Verify missed a cluster-deployed guest absent from the pool")
	}
	if err := cp.Pool().AdmitTriangle("web", tri); err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	cfg := core.DefaultClusterConfig()
	cfg.Mode = core.ModeBaseline
	cfg.Hosts = 1
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c, DefaultConfig(2)); err == nil {
		t.Fatal("baseline cluster accepted")
	}
	cfg = core.DefaultClusterConfig()
	c2, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c2, Config{Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New(nil, DefaultConfig(1)); err == nil {
		t.Fatal("nil cluster accepted")
	}
	if _, err := placement.NewPool(-1, 1); err == nil {
		t.Fatal("negative pool accepted")
	}
}
