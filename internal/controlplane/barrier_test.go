package controlplane

import (
	"fmt"
	"testing"

	"stopwatch/internal/apps"
	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// TestOneBarrierFourCallers drives the same move — guest "web"'s replica off
// its first machine onto the lowest-numbered free one — through each op that
// can ask for it, and checks it is the same barrier every time: the five
// phases in order, the moving replica frozen by the barrier exactly when the
// caller's machine is alive and the move is planned (a migration, a drain's
// child), left alone when the op reports a failure (a direct replacement)
// and already dead under an evacuation's child; then strict lockstep.
func TestOneBarrierFourCallers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		submit func(cp *ControlPlane, from, to int) *Outcome
		// stoppedBefore/AtPause: the moving replica's execution state when
		// its move op starts and when the barrier has paused the ingress.
		stoppedBefore, stoppedAtPause bool
	}{
		{"replace", func(cp *ControlPlane, from, _ int) *Outcome {
			return cp.Apply(ReplaceOp{GuestID: "web", DeadHost: from})
		}, false, false},
		{"migrate", func(cp *ControlPlane, from, to int) *Outcome {
			return cp.Apply(MigrateOp{GuestID: "web", From: from, To: to})
		}, false, true},
		{"drain child", func(cp *ControlPlane, from, _ int) *Outcome {
			return cp.Apply(DrainOp{Machine: from})
		}, false, true},
		{"evacuation child", func(cp *ControlPlane, from, _ int) *Outcome {
			if oc := cp.Apply(FailOp{Machine: from}); oc.Rejected() {
				return oc
			}
			return cp.Apply(EvacuateOp{Machine: from})
		}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := newTestPlane(t, 7, 3, 71)
			c := cp.Cluster()
			// The beacon goes quiet in guest time before the run ends, so
			// the closing audit can demand exact agreement.
			oc := cp.Apply(AdmitOp{GuestID: "web", Factory: func() guest.App {
				b := apps.NewBeaconApp(vtime.Virtual(4 * sim.Millisecond))
				b.Sink = "sink"
				b.Until = vtime.Virtual(2 * sim.Second)
				return b
			}})
			if oc.Err != nil {
				t.Fatal(oc.Err)
			}
			g, tri := oc.Guest, oc.Triangle
			from, to := tri[0], 0
			for tri.Contains(to) {
				to++
			}
			slot, _ := g.SlotOnHost(from)
			moving := g.Replica(slot).Runtime() // the occupant before the move

			var move *Outcome
			var stoppedBefore, stoppedAtPause bool
			cp.Watch(func(ev Event) {
				if k := ev.Op.Kind(); k != KindReplace && k != KindMigrate {
					return
				}
				switch {
				case ev.Kind == OpStarted:
					move, _ = cp.Outcome(ev.Seq)
					stoppedBefore = moving.Stopped()
				case ev.Kind == PhaseReached && ev.Phase == PhasePause:
					stoppedAtPause = moving.Stopped()
				}
			})
			c.Start()
			c.Loop().At(300*sim.Millisecond, "move", func() {
				if oc := tc.submit(cp, from, to); oc.Rejected() {
					t.Error(oc.Err)
				}
			})
			if err := c.Run(3 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if move == nil {
				t.Fatal("no move op started")
			}
			if !move.Done() || move.Err != nil {
				t.Fatalf("move op: %v", move)
			}
			if got, want := fmt.Sprint(phaseNames(move)), "[pause quiesce rehome replace resume]"; got != want {
				t.Fatalf("phases %s, want %s", got, want)
			}
			if stoppedBefore != tc.stoppedBefore || stoppedAtPause != tc.stoppedAtPause {
				t.Fatalf("moving replica stopped before=%v at pause=%v, want %v and %v",
					stoppedBefore, stoppedAtPause, tc.stoppedBefore, tc.stoppedAtPause)
			}
			if got, _ := cp.Pool().Triangle("web"); got.Contains(from) || !got.Contains(to) || got != move.Triangle {
				t.Fatalf("triangle %v (outcome %v) after moving %d->%d off %v", got, move.Triangle, from, to, tri)
			}
			if _, busy := cp.InFlight("web"); busy {
				t.Fatal("guest still held after its move completed")
			}
			if err := cp.Verify(); err != nil {
				t.Fatal(err)
			}
			if n := g.Replica(slot).Runtime().VM().OutputCount(); n < 400 {
				t.Fatalf("replacement replica logged %d outputs, want the guest's ~500", n)
			}
			if err := g.CheckLockstep(); err != nil {
				t.Fatal(err)
			}
			if g.Divergences() != 0 {
				t.Fatalf("%d synchrony divergences", g.Divergences())
			}
		})
	}
}

func phaseNames(oc *Outcome) []Phase {
	var names []Phase
	for _, pt := range oc.Phases {
		names = append(names, pt.Phase)
	}
	return names
}
