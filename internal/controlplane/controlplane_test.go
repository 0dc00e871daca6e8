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

// TestReplicaTrafficStaysOnItsShard admits a full fleet of sinkless beacons,
// so the only fabric traffic is between the replicas of one guest (pacing
// beacons), and holds the share of sends that cross a shard to a few
// percent. The pool puts a triangle on neighbouring machines and the
// cluster maps neighbouring machines to one shard, which gives 2.0 % at
// K = 2 and 5.4 % at K = 4; machine i on shard i mod K gave 68 % and 91 %.
func TestReplicaTrafficStaysOnItsShard(t *testing.T) {
	for _, tc := range []struct {
		shards   int
		maxShare float64
	}{{2, 0.05}, {4, 0.10}} {
		cfg := core.DefaultClusterConfig()
		cfg.Hosts, cfg.Shards = 200, tc.shards
		c, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := New(c, DefaultConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.Hosts; i++ {
			factory := func() guest.App { return apps.NewBeaconApp(vtime.Virtual(5 * sim.Millisecond)) }
			if err := cp.Apply(AdmitOp{GuestID: fmt.Sprintf("g%d", i), Factory: factory}).Err; err != nil {
				t.Fatal(err)
			}
		}
		c.Start()
		if err := c.Run(100 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		st := c.Net().Stats()
		cross, sends := c.Net().CrossShard(), st.Delivered+st.Lost
		if share := float64(cross) / float64(sends); sends == 0 || share > tc.maxShare {
			t.Errorf("K=%d: %d of %d sends crossed a shard (%.1f %%), want at most %.0f %%",
				tc.shards, cross, sends, 100*share, 100*tc.maxShare)
		}
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

// TestPlannedReplacementMigratesADonorFirst: under EnablePlannedMigration a
// replacement the packing cannot satisfy — every free machine shares an
// edge with web's survivor 1, through a or b — asks the planner for one move
// of another guest, runs it as a child MigrateOp logged under the
// replacement, and then re-homes. Both barriers complete, the replacement
// passes through PhasePlan, and every guest ends in lockstep on a verified
// packing.
func TestPlannedReplacementMigratesADonorFirst(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 73)
	cp.EnablePlannedMigration()
	c := cp.Cluster()
	// Each admission is steered onto its triangle by taking every other
	// machine out of placement while it is placed.
	for _, g := range []struct {
		id  string
		tri placement.Triangle
	}{{"web", placement.Triangle{0, 1, 2}}, {"a", placement.Triangle{1, 3, 4}}, {"b", placement.Triangle{1, 5, 6}}} {
		var off []int
		for m := 0; m < 7; m++ {
			if !g.tri.Contains(m) {
				off = append(off, m)
			}
		}
		for _, m := range off {
			if err := cp.Pool().Mark(m, placement.Maintenance); err != nil {
				t.Fatal(err)
			}
		}
		if oc := cp.Apply(AdmitOp{GuestID: g.id, Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}); oc.Err != nil || oc.Triangle != g.tri {
			t.Fatalf("admit %s: %v on %v, want %v", g.id, oc.Err, oc.Triangle, g.tri)
		}
		for _, m := range off {
			if err := cp.Pool().Clear(m, placement.Maintenance); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Start()
	var replace *Outcome
	c.Loop().At(300*sim.Millisecond, "fail", func() {
		g, _ := c.Guest("web")
		slot, _ := g.SlotOnHost(0)
		g.Replica(slot).Runtime().Stop()
		if replace = cp.Apply(ReplaceOp{GuestID: "web", DeadHost: 0}); replace.Rejected() {
			t.Error(replace.Err)
		}
	})
	if err := c.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !replace.Done() || replace.Err != nil {
		t.Fatalf("replacement: %v", replace)
	}
	if got, want := fmt.Sprint(phaseNames(replace)), "[pause quiesce plan rehome replace resume]"; got != want {
		t.Fatalf("replacement phases %s, want %s", got, want)
	}
	if replace.Triangle != (placement.Triangle{1, 2, 3}) {
		t.Fatalf("web re-homed onto %v, want the machine a's move opened: [1 2 3]", replace.Triangle)
	}
	var children []string
	for _, oc := range cp.Log() {
		if oc.Parent == replace.Seq {
			children = append(children, fmt.Sprintf("%v err=%v", oc.Op, oc.Err))
		}
	}
	if want := fmt.Sprintf("[%v err=<nil>]", MigrateOp{GuestID: "a", From: 1, To: 5}); fmt.Sprint(children) != want {
		t.Fatalf("children of the replacement: %v, want %s", children, want)
	}
	if st := cp.Stats(); st.MigrationsPlanned != 1 || st.Migrations != 1 || st.Replacements != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"web", "a", "b"} {
		g, _ := c.Guest(id)
		if err := g.CheckLockstepPrefix(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
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

// TestReplaceReplicaRollbackRestoresPool: the destination of a move — the
// machine Rehome will scan to, or the one a migration pins — is killed at
// the data plane behind the control plane's back (core.FailMachine, no
// FailOp — the pool never learns) once the op has passed validation, so the
// switchover is refused after the pool has already re-homed. The control
// plane must restore the original triangle and treat the refusal as the
// detection it is: a detected FailOp for that machine goes on the log at the
// refusal instant, the pool marks it Failed, and the place step runs again
// without it — a replacement lands elsewhere with the guest in lockstep, a
// migration's pinned destination is now infeasible and the move fails with
// the original triangle back. Pool and cluster stay coherent under Verify.
func TestReplaceReplicaRollbackRestoresPool(t *testing.T) {
	for _, tc := range []struct {
		name     string
		op       func(from, to int, done func(*Outcome)) Op
		failures func(Stats) int
		moves    bool
	}{
		{"replace", func(from, _ int, done func(*Outcome)) Op {
			return ReplaceOp{GuestID: "web", DeadHost: from, Done: done}
		}, func(st Stats) int { return st.ReplacementFailures }, true},
		{"migrate", func(from, to int, done func(*Outcome)) Op {
			return MigrateOp{GuestID: "web", From: from, To: to, Done: done}
		}, func(st Stats) int { return st.MigrationFailures }, false},
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
			// Rehome scans least-loaded-first with the index as tie-break,
			// so it will pick the lowest-index non-member — the machine the
			// migration names too.
			off := 0
			for tri.Contains(off) {
				off++
			}
			var move *Outcome
			c.Loop().At(300*sim.Millisecond, "fail", func() {
				slot, _ := g.SlotOnHost(tri[0])
				g.Replica(slot).Runtime().Stop()
				if move = cp.Apply(tc.op(tri[0], off, nil)); move.Rejected() {
					t.Error(move.Err)
				}
				if err := c.FailMachine(off); err != nil {
					t.Error(err)
				}
			})
			if err := c.Run(5 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if !move.Done() {
				t.Fatal("move never finished")
			}
			// The refusal became a detection, at the instant of the refusal.
			refused, _ := move.PhaseAt(PhaseRehome)
			var detected *Outcome
			for _, oc := range cp.Log() {
				if op, ok := oc.Op.(FailOp); ok && op.Machine == off {
					detected = oc
				}
			}
			if detected == nil || !detected.Op.(FailOp).Detected || detected.Err != nil || detected.Submitted != refused {
				t.Fatalf("no accepted detected fail of machine %d at the refusal (t=%v): %v", off, refused, detected)
			}
			if !cp.Failed(off) || !cp.Pool().Drained(off) {
				t.Fatalf("machine %d refused a replica and is still offered", off)
			}
			got, _ := cp.Pool().Triangle("web")
			if tc.moves {
				if move.Err != nil {
					t.Fatalf("replacement not re-homed past the dead machine: %v", move.Err)
				}
				if got != move.Triangle || got.Contains(tri[0]) || got.Contains(off) {
					t.Fatalf("re-homed onto %v (outcome %v) from %v with machine %d dead", got, move.Triangle, tri, off)
				}
				if err := g.CheckLockstepPrefix(); err != nil {
					t.Fatal(err)
				}
			} else {
				if !errors.Is(move.Err, placement.ErrNoFeasibleHost) {
					t.Fatalf("move pinned to a dead machine: %v", move.Err)
				}
				if got != tri {
					t.Fatalf("rollback did not restore the triangle: %v != %v", got, tri)
				}
			}
			if failed := tc.failures(cp.Stats()) == 1; failed == tc.moves {
				t.Fatalf("barrier failures in %+v", cp.Stats())
			}
			if err := cp.Verify(); err != nil {
				t.Fatalf("pool/cluster diverged after rollback: %v", err)
			}
		})
	}
}

// TestAdmitRefusedAsBornDeadDetectsAndPlacesAgain: a machine dies at the
// data plane with no FailOp and nothing to stall (it is empty), so the pool
// still offers it — it is in the least-loaded triangle. The admission is not
// refused: the cluster's refusal marks the machine failed, on the log as a
// detected fail submitted at that instant, and the tenant lands on a
// triangle without it.
func TestAdmitRefusedAsBornDeadDetectsAndPlacesAgain(t *testing.T) {
	cp := newTestPlane(t, 7, 3, 71)
	c := cp.Cluster()
	const dead = 1
	if err := c.FailMachine(dead); err != nil {
		t.Fatal(err)
	}
	oc := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))})
	if oc.Err != nil {
		t.Fatalf("admission with machine %d dead and undetected: %v", dead, oc.Err)
	}
	if oc.Triangle.Contains(dead) || oc.Triangle != (placement.Triangle{0, 2, 3}) {
		t.Fatalf("placed on %v", oc.Triangle)
	}
	log := cp.Log()
	if len(log) != 2 || log[1].Op.String() != "fail 1 (detected)" || log[1].Rejected() || log[1].Submitted != oc.Submitted {
		t.Fatalf("op log:\n%s", FormatLog(log))
	}
	if !cp.Failed(dead) || !cp.Pool().Drained(dead) {
		t.Fatalf("machine %d refused a replica and is still offered", dead)
	}
	c.Start()
	if err := c.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := oc.Guest.CheckLockstepPrefix(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
	// Every machine dead: each retry removes one, and the admission ends on
	// the pool's own answer.
	cp = newTestPlane(t, 4, 3, 71)
	for m := 0; m < 4; m++ {
		if err := cp.Cluster().FailMachine(m); err != nil {
			t.Fatal(err)
		}
	}
	if oc := cp.Apply(AdmitOp{GuestID: "web", Factory: beaconFactory(vtime.Virtual(4 * sim.Millisecond))}); !errors.Is(oc.Err, ErrNoFeasibleHost) {
		t.Fatalf("admission onto a fleet of dead machines: %v", oc.Err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
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
	// The per-guest audit sees it when asked about that guest, and only then.
	if err := cp.Verify("web"); err == nil {
		t.Fatal("Verify(web) missed a cluster-deployed guest absent from the pool")
	}
	if err := cp.Verify("departed"); err != nil {
		t.Fatalf("Verify of a guest in neither pool nor cluster: %v", err)
	}
	// A triangle the cluster does not run: both audits name the mismatch.
	other := placement.Triangle{0, 1, 2}
	for other == tri {
		other = placement.Triangle{0, 1, 3}
	}
	if err := cp.Pool().AdmitTriangle("web", other); err != nil {
		t.Fatal(err)
	}
	if cp.Verify() == nil || cp.Verify("web") == nil {
		t.Fatalf("Verify missed a guest deployed on %v and pooled on %v", tri, other)
	}
	if _, err := cp.Pool().Release("web"); err != nil {
		t.Fatal(err)
	}
	if err := cp.Pool().AdmitTriangle("web", tri); err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify("web"); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	// A one-machine cluster takes a control plane, but no admission: a
	// replica triangle needs three machines.
	one := newTestPlane(t, 1, 2, 1)
	if err := one.Apply(AdmitOp{GuestID: "g", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; !errors.Is(err, ErrRejected) {
		t.Fatalf("admission on one machine: %v, want ErrRejected", err)
	}
	cfg := core.DefaultClusterConfig()
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
