package controlplane

import (
	"fmt"
	"testing"

	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// TestWatchCancelFromOwnCallback: a subscriber cancelling itself from
// inside its own callback must complete the current delivery round
// untouched and receive nothing afterwards.
func TestWatchCancelFromOwnCallback(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 1)
	var got []EventKind
	var cancel func()
	cancel = cp.Watch(func(ev Event) {
		got = append(got, ev.Kind)
		cancel()
	})
	// One admit emits OpStarted, two PhaseReached, OpCompleted.
	// Cancellation takes effect per event (emit checks w.fn before every
	// delivery), so the self-cancelling subscriber sees exactly one.
	if err := cp.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != OpStarted {
		t.Fatalf("self-cancelled subscriber saw %v, want [%d] (OpStarted)", got, OpStarted)
	}
	// Later ops deliver nothing to it.
	if err := cp.Apply(AdmitOp{GuestID: "g1", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("cancelled subscriber still receiving: %v", got)
	}
}

// TestWatchCancelPeerFromCallback: subscriber A cancelling subscriber B
// mid-delivery. B subscribed after A, so the current event is still
// pending for B — the cancellation must take effect immediately (B never
// sees the event that triggered its cancellation).
func TestWatchCancelPeerFromCallback(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 1)
	var bSaw int
	cancelB := func() {}
	cp.Watch(func(ev Event) {
		if ev.Kind == OpStarted {
			cancelB()
		}
	})
	cancelB = cp.Watch(func(ev Event) { bSaw++ })
	if err := cp.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	if bSaw != 0 {
		t.Fatalf("peer-cancelled subscriber saw %d events, want 0", bSaw)
	}
}

// TestWatchSubscribeFromCallback: subscribing from inside a callback must
// be safe (no slice-mutation skips or re-entrant corruption). Whether the
// new subscriber sees the event that was mid-delivery is defined: it does
// not — emit iterates the watcher snapshot taken at emit start.
func TestWatchSubscribeFromCallback(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 1)
	var lateSaw []EventKind
	subscribed := false
	cp.Watch(func(ev Event) {
		if subscribed {
			return
		}
		subscribed = true
		cp.Watch(func(ev Event) { lateSaw = append(lateSaw, ev.Kind) })
	})
	if err := cp.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	// The late subscriber joined during g0's OpStarted: it must have missed
	// that event but seen the rest of g0's stream (2 phases + completed).
	want := []EventKind{PhaseReached, PhaseReached, OpCompleted}
	if len(lateSaw) != len(want) {
		t.Fatalf("late subscriber saw %v, want %v", lateSaw, want)
	}
	for i := range want {
		if lateSaw[i] != want[i] {
			t.Fatalf("late subscriber saw %v, want %v", lateSaw, want)
		}
	}
	// And determinism: the same scenario delivers the same stream.
	cp2 := newTestPlane(t, 9, 3, 1)
	var lateSaw2 []EventKind
	subscribed2 := false
	cp2.Watch(func(ev Event) {
		if subscribed2 {
			return
		}
		subscribed2 = true
		cp2.Watch(func(ev Event) { lateSaw2 = append(lateSaw2, ev.Kind) })
	})
	if err := cp2.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lateSaw) != fmt.Sprint(lateSaw2) {
		t.Fatalf("subscribe-from-callback not deterministic: %v vs %v", lateSaw, lateSaw2)
	}
}

// TestWatchCancelTwiceIsNoOp: the documented cancel contract.
func TestWatchCancelTwiceIsNoOp(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 1)
	n := 0
	cancel := cp.Watch(func(Event) { n++ })
	cancel()
	cancel()
	if err := cp.Apply(AdmitOp{GuestID: "g0", Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cancelled subscriber saw %d events", n)
	}
}

// TestStatsFoldsInFlightLog: Stats counts what has happened at every step
// of a lifecycle that interleaves synchronous and asynchronous (in-flight,
// mutating) outcomes — a synchronous op behind an in-flight one included.
func TestStatsFoldsInFlightLog(t *testing.T) {
	cp := newTestPlane(t, 9, 3, 2)
	check := func(when string, admitted, evicted, replaced int) {
		t.Helper()
		if st := cp.Stats(); st.Admitted != admitted || st.Evicted != evicted || st.Replacements != replaced {
			t.Fatalf("%s: %+v, want %d admitted, %d evicted, %d replaced", when, st, admitted, evicted, replaced)
		}
	}
	check("empty", 0, 0, 0)
	for i := 0; i < 4; i++ {
		if err := cp.Apply(AdmitOp{GuestID: fmt.Sprintf("g%d", i), Factory: beaconFactory(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
			t.Fatal(err)
		}
		check("after admit", i+1, 0, 0)
	}
	cp.Cluster().Start()
	if err := cp.Cluster().Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Kill g0's replica and start an asynchronous replacement: while the
	// barrier is in flight its outcome keeps mutating (retries, phases).
	g, _ := cp.Cluster().Guest("g0")
	dead := g.Replica(0).Host()
	g.Replica(0).Runtime().Stop()
	if oc := cp.Apply(ReplaceOp{GuestID: "g0", DeadHost: dead}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	check("replacement submitted", 4, 0, 0)
	// A synchronous op lands after the in-flight one; it must still count.
	if err := cp.Apply(EvictOp{GuestID: "g3"}).Err; err != nil {
		t.Fatal(err)
	}
	check("evict behind in-flight replace", 4, 1, 0)
	if err := cp.Cluster().Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	check("replacement done", 4, 1, 1)
}
