package controlplane

import (
	"errors"
	"testing"

	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// TestDrainHostEvacuatesEveryResident is the drain property test: after
// a DrainOp completes on a live cloud, the machine hosts zero replicas, the
// pool is still edge-disjoint and conserves edges (3 per resident guest),
// and every affected guest passes the lockstep prefix audit. Run across
// several seeds/machines so the property is exercised on different packings.
func TestDrainHostEvacuatesEveryResident(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		machine int
	}{{31, 0}, {33, 2}, {35, 5}} {
		cp := newTestPlane(t, 9, 3, tc.seed)
		c := cp.Cluster()
		// Fill part of the cloud so the drained machine has residents and
		// the rest has headroom to take them.
		var ids []string
		for i := 0; i < 5; i++ {
			id := []string{"ga", "gb", "gc", "gd", "ge"}[i]
			if err := cp.Apply(AdmitOp{GuestID: id, Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}).Err; err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		c.Start()
		affected := cp.Pool().Residents(tc.machine)
		if len(affected) == 0 {
			t.Fatalf("seed %d: machine %d has no residents — pick another", tc.seed, tc.machine)
		}
		var drainErr error
		drained := false
		c.Loop().At(300*sim.Millisecond, "drain", func() {
			if oc := cp.Apply(DrainOp{Machine: tc.machine, Done: func(oc *Outcome) {
				drainErr = oc.Err
				drained = true
			}}); oc.Rejected() {
				t.Errorf("DrainOp: %v", oc.Err)
			}
		})
		if err := c.Run(20 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if !drained {
			t.Fatalf("seed %d: drain never completed", tc.seed)
		}
		if drainErr != nil {
			t.Fatalf("seed %d: evacuation errors: %v", tc.seed, drainErr)
		}
		// The machine is empty and out of the pool.
		if l := cp.Pool().Load(tc.machine); l != 0 {
			t.Fatalf("seed %d: machine %d still has load %d", tc.seed, tc.machine, l)
		}
		if got := cp.Pool().Residents(tc.machine); len(got) != 0 {
			t.Fatalf("seed %d: machine %d still hosts %v", tc.seed, tc.machine, got)
		}
		if !cp.Pool().Drained(tc.machine) {
			t.Fatalf("seed %d: machine %d not marked drained", tc.seed, tc.machine)
		}
		for _, id := range ids {
			g, ok := c.Guest(id)
			if !ok {
				t.Fatalf("seed %d: guest %s missing", tc.seed, id)
			}
			for _, h := range g.HostIndexes() {
				if h == tc.machine {
					t.Fatalf("seed %d: guest %s still deployed on drained machine %d", tc.seed, id, tc.machine)
				}
			}
		}
		// Edge-disjointness, conservation, and pool/cluster agreement.
		if err := cp.Verify(); err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if cp.Pool().EdgesUsed() != 3*cp.Pool().Guests() {
			t.Fatalf("seed %d: %d edges for %d guests", tc.seed, cp.Pool().EdgesUsed(), cp.Pool().Guests())
		}
		// Every affected guest is still in lockstep after its move.
		for _, id := range affected {
			g, _ := c.Guest(id)
			if err := g.CheckLockstepPrefix(); err != nil {
				t.Fatalf("seed %d: %v", tc.seed, err)
			}
		}
		st := cp.Stats()
		if st.HostDrains != 1 || st.Evacuations != len(affected) || st.EvacuationFailures != 0 {
			t.Fatalf("seed %d: stats %+v, want %d evacuations", tc.seed, st, len(affected))
		}
		// Undrain returns the capacity: a new tenant can land on the machine.
		if err := cp.Apply(UndrainOp{Machine: tc.machine}).Err; err != nil {
			t.Fatal(err)
		}
		if err := cp.Apply(AdmitOp{GuestID: "fresh", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}).Err; err != nil {
			t.Fatalf("seed %d: admit after undrain: %v", tc.seed, err)
		}
		if err := cp.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainHostRemovesCapacity checks that a drained machine takes no new
// replicas, that double-drain and premature undrain are rejected, and that
// an infeasible evacuation surfaces as ErrNoFeasibleHost while the guest
// keeps serving degraded.
func TestDrainHostRemovesCapacity(t *testing.T) {
	// 5 hosts, one guest: the first two drains each leave a spare machine
	// for the move; the third leaves none, so its evacuation must fail
	// typed with ErrNoFeasibleHost.
	cp := newTestPlane(t, 5, 1, 41)
	c := cp.Cluster()
	oc := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))})
	g, tri, err := oc.Guest, oc.Triangle, oc.Err
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if oc := cp.Apply(DrainOp{Machine: 5}); !oc.Rejected() {
		t.Fatal("out-of-range machine accepted")
	}
	var firstErr, secondErr error
	first, second := false, false
	c.Loop().At(200*sim.Millisecond, "drain-1", func() {
		if oc := cp.Apply(DrainOp{Machine: tri[0], Done: func(oc *Outcome) { firstErr, first = oc.Err, true }}); oc.Rejected() {
			t.Errorf("drain 1: %v", oc.Err)
		}
		if oc := cp.Apply(DrainOp{Machine: tri[0]}); !oc.Rejected() {
			t.Error("double drain accepted")
		}
		if err := cp.Apply(UndrainOp{Machine: tri[0]}).Err; err == nil {
			t.Error("undrain while evacuating accepted")
		}
	})
	c.Loop().At(5*sim.Second, "drain-2", func() {
		if !first || firstErr != nil {
			t.Errorf("first drain: done=%v err=%v", first, firstErr)
		}
		newTri, _ := cp.Pool().Triangle("web")
		if oc := cp.Apply(DrainOp{Machine: newTri[0], Done: func(oc *Outcome) { second = true }}); oc.Rejected() {
			t.Errorf("drain 2: %v", oc.Err)
		}
	})
	// After two drains the guest sits on the only three usable machines:
	// draining another triangle member leaves its replica nowhere to go,
	// and the guest keeps serving degraded.
	third := false
	c.Loop().At(10*sim.Second, "drain-3", func() {
		if !second {
			t.Error("second drain incomplete")
		}
		curTri, _ := cp.Pool().Triangle("web")
		if oc := cp.Apply(DrainOp{Machine: curTri[0], Done: func(oc *Outcome) { secondErr, third = oc.Err, true }}); oc.Rejected() {
			t.Errorf("drain 3: %v", oc.Err)
		}
	})
	if err := c.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !third {
		t.Fatal("third drain never completed")
	}
	if !errors.Is(secondErr, placement.ErrNoFeasibleHost) {
		t.Fatalf("want ErrNoFeasibleHost, got %v", secondErr)
	}
	if st := cp.Stats(); st.EvacuationFailures != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The failed guest serves degraded: frozen replica excluded, the live
	// pair still agrees.
	deadTri, _ := cp.Pool().Triangle("web")
	slot, on := g.SlotOnHost(deadTri[0])
	if !on {
		t.Fatal("failed evacuation should leave the replica resident")
	}
	if err := g.CheckLockstepPrefixExcluding(slot); err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaAccessorsSurviveLifecycle is the regression test for the
// slot-addressed Guest API: the accessors stay coherent with the wiring —
// the single source of truth — across Admit → Replace → Evict, with no
// parallel state to desync.
func TestReplicaAccessorsSurviveLifecycle(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 43)
	c := cp.Cluster()
	oc := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(3 * sim.Millisecond))})
	g, tri, err := oc.Guest, oc.Triangle, oc.Err
	if err != nil {
		t.Fatal(err)
	}
	checkCoherent := func(when string) {
		t.Helper()
		if g.NumReplicas() != 3 || len(g.Replicas()) != 3 {
			t.Fatalf("%s: replica count %d/%d", when, g.NumReplicas(), len(g.Replicas()))
		}
		hosts := g.HostIndexes()
		for _, r := range g.Replicas() {
			if r.Guest() != g {
				t.Fatalf("%s: replica %d points at wrong guest", when, r.Slot())
			}
			if hosts[r.Slot()] != r.Host() {
				t.Fatalf("%s: HostIndexes()[%d]=%d but Replica.Host()=%d", when, r.Slot(), hosts[r.Slot()], r.Host())
			}
			if r.Runtime() == nil || r.NetDev() == nil || r.App() == nil {
				t.Fatalf("%s: replica %d has nil wiring", when, r.Slot())
			}
			if r.Runtime().Host().Name() != r.HostName() {
				t.Fatalf("%s: replica %d host name mismatch", when, r.Slot())
			}
			if r.Epoch() != nil {
				t.Fatalf("%s: epochs disabled but replica %d has a coordinator", when, r.Slot())
			}
			if got, ok := g.SlotOnHost(r.Host()); !ok || got != r.Slot() {
				t.Fatalf("%s: SlotOnHost(%d)=%d,%v want %d", when, r.Host(), got, ok, r.Slot())
			}
			if g.App(r.Slot()) != r.App() {
				t.Fatalf("%s: App(%d) disagrees with Replica.App", when, r.Slot())
			}
		}
	}
	checkCoherent("after admit")
	c.Start()

	// A view taken now must read through to the slot's occupant after the
	// replacement below.
	deadHost := tri[2]
	slot, _ := g.SlotOnHost(deadHost)
	view := g.Replica(slot)
	done := false
	c.Loop().At(300*sim.Millisecond, "fail", func() {
		view.Runtime().Stop()
		if oc := cp.Apply(ReplaceOp{GuestID: "web", DeadHost: deadHost, Done: func(oc *Outcome) {
			if oc.Err != nil {
				t.Errorf("replacement: %v", oc.Err)
			}
			done = true
		}}); oc.Rejected() {
			t.Error(oc.Err)
		}
	})
	if err := c.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("replacement never finished")
	}
	checkCoherent("after replace")
	if view.Host() == deadHost {
		t.Fatal("stale view: replica slot still reads the dead host")
	}
	if g.Replica(slot).Runtime() != view.Runtime() {
		t.Fatal("view and fresh accessor disagree")
	}
	if err := g.CheckLockstepPrefix(); err != nil {
		t.Fatal(err)
	}

	// Out-of-range slots panic like the slice indexing they replaced.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Replica(3) should panic")
			}
		}()
		g.Replica(3)
	}()

	if err := cp.Apply(EvictOp{GuestID: "web"}).Err; err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Guest("web"); ok {
		t.Fatal("guest still deployed after evict")
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
}
