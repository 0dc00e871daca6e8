package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// miniFabric is a toy sharded transport for coordinator tests, shaped like
// the real netsim: nodes are pinned to shards, cross-shard sends park in
// per-destination-shard outboxes and are injected at Exchange with the
// partition-invariant (arrival, link-hash, link-seq) key, and each NODE
// records its own arrival trace — per-node order is the invariant the
// coordinator guarantees; a global cross-shard interleaving is not defined.
type miniFabric struct {
	loops   []*Loop
	shardOf []int         // node -> shard
	outs    [][][]miniMsg // [src shard][dst shard]; single writer = src shard
	traces  [][]string    // per destination node; single writer = its shard
	linkSeq [64]uint64    // per directed link; single writer = src's shard
}

type miniMsg struct {
	when    Time
	k1, k2  uint64
	dstNode int
	label   string
}

func newMiniFabric(loops []*Loop, shardOf []int) *miniFabric {
	outs := make([][][]miniMsg, len(loops))
	for i := range outs {
		outs[i] = make([][]miniMsg, len(loops))
	}
	return &miniFabric{
		loops:   loops,
		shardOf: shardOf,
		outs:    outs,
		traces:  make([][]string, len(shardOf)),
	}
}

// send schedules an arrival at node dst at now+lat. Same-shard arrivals go
// straight onto the loop; cross-shard arrivals wait for the exchange.
func (f *miniFabric) send(src, dst int, lat Time) {
	link := src*8 + dst
	f.linkSeq[link]++
	ks, kd := f.shardOf[src], f.shardOf[dst]
	m := miniMsg{when: f.loops[ks].Now() + lat, k1: uint64(link), k2: f.linkSeq[link],
		dstNode: dst, label: fmt.Sprintf("msg:%d->%d", src, dst)}
	if ks == kd {
		f.inject(m)
		return
	}
	f.outs[ks][kd] = append(f.outs[ks][kd], m)
}

func (f *miniFabric) inject(m miniMsg) {
	l := f.loops[f.shardOf[m.dstNode]]
	l.AtArrivalTimer(m.when, m.label, func(a, _ any, _ uint64) {
		mm := a.(miniMsg)
		f.traces[mm.dstNode] = append(f.traces[mm.dstNode], fmt.Sprintf("%d@%s", l.Now(), mm.label))
	}, m, nil, 0, m.k1, m.k2)
}

func (f *miniFabric) exchange() {
	for src := range f.outs {
		for dst, box := range f.outs[src] {
			for _, m := range box {
				f.inject(m)
			}
			f.outs[src][dst] = f.outs[src][dst][:0]
		}
	}
}

func TestCoordinatorControlBeforeShardDataAtEqualTime(t *testing.T) {
	ctrl := NewLoop()
	shard := NewLoop()
	var order []string
	shard.At(10, "data", func() { order = append(order, "data@10") })
	ctrl.At(10, "ctrl", func() { order = append(order, "ctrl@10") })
	co := NewCoordinator(ctrl, []*Loop{shard}, func() Time { return 3 }, nil)
	if err := co.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	want := []string{"ctrl@10", "data@10"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v (control events must precede same-time shard data)", order, want)
	}
	if ctrl.Now() != 20 || shard.Now() != 20 {
		t.Fatalf("loops left at ctrl=%d shard=%d, want 20", ctrl.Now(), shard.Now())
	}
	if got := co.FiredTotal(); got != 2 {
		t.Fatalf("FiredTotal = %d, want 2", got)
	}
}

// TestCoordinatorBarrierSeesParkedShards: a control event runs at a
// barrier, with every shard parked at the event's instant — none mid-window,
// none holding unexecuted events in the past — so control code may read any
// shard's state, as the stall detector's sweep does. Sequential and parallel.
func TestCoordinatorBarrierSeesParkedShards(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		ctrl := NewLoop()
		shards := []*Loop{NewLoop(), NewLoop()}
		for _, s := range shards {
			s := s
			s.At(7, "tick", func() { s.After(9, "tick", func() {}) })
		}
		checks := 0
		var check func()
		check = func() {
			checks++
			for i, s := range shards {
				if s.Now() != ctrl.Now() || (s.HasPendingEvents() && s.PeekNextEventTime() < s.Now()) {
					t.Fatalf("parallel=%v, check %d: shard %d at %d with next=%d, ctrl at %d",
						parallel, checks, i, s.Now(), s.PeekNextEventTime(), ctrl.Now())
				}
			}
			ctrl.After(3, "check", check)
		}
		ctrl.At(1, "check", check)
		co := NewCoordinator(ctrl, shards, func() Time { return 5 }, nil)
		co.SetParallel(parallel)
		if err := co.RunUntil(30); err != nil {
			t.Fatal(err)
		}
		if checks != 10 {
			t.Fatalf("parallel=%v: %d control checks by t=30, want 10", parallel, checks)
		}
	}
}

// TestCoordinatorPartitionInvariance is the determinism core: the same
// traffic pattern over one shard, two/four sequential shards and two/four
// parallel shards must give every node a byte-identical arrival trace.
func TestCoordinatorPartitionInvariance(t *testing.T) {
	// run executes a fixed cross-node message pattern on nShards shards
	// (node i lives on shard i%nShards) and returns per-node traces. One
	// tick is unit ns, and every loop also carries ballast silent timers
	// spread over the run: with 300 of them at 300 ns a tick each shard
	// builds its wheel and the messages land in buckets of their own, so the
	// coordinator's peeks at parked shards and the barrier's injections work
	// on wheels (and under -race, from the coordinator goroutine).
	run := func(nShards int, parallel bool, unit Time, ballast int) [][]string {
		loops := make([]*Loop, nShards)
		for i := range loops {
			loops[i] = NewLoop()
			for b := 0; b < ballast; b++ {
				loops[i].AtTimer(unit*Time(b)/2, "ballast", func(_, _ any, _ uint64) {}, nil, nil, 0)
			}
		}
		const nodes = 4
		lat := 10 * unit // lookahead bound: min link latency
		shardOf := make([]int, nodes)
		for i := range shardOf {
			shardOf[i] = i % nShards
		}
		f := newMiniFabric(loops, shardOf)
		ctrl := NewLoop()
		// Each node sends to (node+1)%nodes and (node+2)%nodes every 7
		// ticks; per-node latency offsets make distinct links collide at
		// equal arrival instants so the (k1, k2) tie-break is exercised.
		var pump func(node int, n int)
		pump = func(node, n int) {
			if n == 0 {
				return
			}
			loops[shardOf[node]].After(7*unit, fmt.Sprintf("pump:%d", node), func() {
				for _, d := range []int{1, 2} {
					f.send(node, (node+d)%nodes, lat+unit*Time(node))
				}
				pump(node, n-1)
			})
		}
		for node := 0; node < nodes; node++ {
			pump(node, 5)
		}
		co := NewCoordinator(ctrl, loops, func() Time { return lat }, f.exchange)
		co.SetParallel(parallel)
		if err := co.RunUntil(100 * unit); err != nil {
			t.Fatal(err)
		}
		if built := loops[0].wheel != nil; built != (ballast >= wheelMin) {
			t.Fatalf("ballast %d: shard 0 built its wheel: %v", ballast, built)
		}
		return f.traces
	}

	for _, size := range []struct {
		unit    Time
		ballast int
	}{{1, 0}, {300, 300}} {
		base := run(1, false, size.unit, size.ballast)
		total := 0
		for _, tr := range base {
			total += len(tr)
		}
		if total == 0 {
			t.Fatal("no messages delivered")
		}
		for _, tc := range []struct {
			k        int
			parallel bool
		}{{2, false}, {2, true}, {4, false}, {4, true}} {
			got := run(tc.k, tc.parallel, size.unit, size.ballast)
			if !reflect.DeepEqual(got, base) {
				t.Errorf("tick %d ns, K=%d parallel=%v: per-node traces diverged from single-shard baseline\ngot  %v\nwant %v",
					size.unit, tc.k, tc.parallel, got, base)
			}
		}
	}
}

func TestCoordinatorNestedRunUntil(t *testing.T) {
	ctrl := NewLoop()
	shard := NewLoop()
	var order []string
	shard.At(15, "late", func() { order = append(order, "late") })
	co := NewCoordinator(ctrl, []*Loop{shard}, func() Time { return 4 }, nil)
	ctrl.At(5, "nest", func() {
		// A control callback advancing the simulation further — the
		// nested call runs inside the outer barrier and must not step
		// any loop backwards afterwards.
		order = append(order, "nest-begin")
		if err := co.RunUntil(20); err != nil {
			t.Error(err)
		}
		order = append(order, "nest-end")
	})
	if err := co.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	want := []string{"nest-begin", "late", "nest-end"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if ctrl.Now() < 20 || shard.Now() < 20 {
		t.Fatalf("nested advance lost: ctrl=%d shard=%d", ctrl.Now(), shard.Now())
	}
}

func TestCoordinatorNonPositiveLookaheadPanics(t *testing.T) {
	ctrl := NewLoop()
	shard := NewLoop()
	shard.At(5, "x", func() {})
	co := NewCoordinator(ctrl, []*Loop{shard}, func() Time { return 0 }, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil with zero lookahead did not panic")
		}
	}()
	_ = co.RunUntil(10)
}

func TestCoordinatorSetParallelDuringRunPanics(t *testing.T) {
	ctrl := NewLoop()
	shard := NewLoop()
	co := NewCoordinator(ctrl, []*Loop{shard}, func() Time { return 5 }, nil)
	ctrl.At(1, "toggle", func() {
		defer func() {
			if recover() == nil {
				t.Error("SetParallel mid-run did not panic")
			}
		}()
		co.SetParallel(true)
	})
	if err := co.RunUntil(2); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorSkipsIdleWindows: windows in which no shard holds an event
// are passed over in one step, and nothing else changes — the same events
// fire in the same per-node order, and every control event finds the shards
// holding what they held on the window-by-window schedule, for every shard
// count.
func TestCoordinatorSkipsIdleWindows(t *testing.T) {
	// Two events 100 000 ticks apart under a lookahead of 10.
	for _, every := range []bool{true, false} {
		ctrl, shard := NewLoop(), NewLoop()
		var fired []Time
		for _, at := range []Time{7, 100_007} {
			shard.At(at, "ev", func() { fired = append(fired, shard.Now()) })
		}
		co := NewCoordinator(ctrl, []*Loop{shard}, func() Time { return 10 }, nil)
		co.everyWindow = every
		if err := co.RunUntil(200_000); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fired, []Time{7, 100_007}) || shard.Now() != 200_000 || ctrl.Now() != 200_000 {
			t.Fatalf("everyWindow=%v: fired %v, shard at %d, ctrl at %d", every, fired, shard.Now(), ctrl.Now())
		}
		if n := co.barriers; every && n < 20_000 || !every && n > 10 {
			t.Fatalf("everyWindow=%v: %d barriers", every, n)
		}
	}

	// Sparse traffic over K shards: bursts 700 ticks apart, a control event
	// that sends from barrier context (its packet waits in an outbox, unseen
	// by any shard's queue, when the idle check runs), and per-shard
	// records drained by a periodic control event.
	type drain struct {
		at    Time
		items []string
	}
	run := func(nShards int, parallel, every bool) ([][]string, []drain, uint64) {
		loops := make([]*Loop, nShards)
		for i := range loops {
			loops[i] = NewLoop()
		}
		const nodes = 4
		const lat = Time(10)
		shardOf := make([]int, nodes)
		for i := range shardOf {
			shardOf[i] = i % nShards
		}
		f := newMiniFabric(loops, shardOf)
		ctrl := NewLoop()
		deferred := make([][]string, nShards)
		var pump func(node, n int)
		pump = func(node, n int) {
			if n == 0 {
				return
			}
			l := loops[shardOf[node]]
			l.After(700+Time(node), fmt.Sprintf("pump:%d", node), func() {
				f.send(node, (node+1)%nodes, lat+Time(node))
				deferred[shardOf[node]] = append(deferred[shardOf[node]], fmt.Sprintf("%d@%d", node, l.Now()))
				pump(node, n-1)
			})
		}
		for node := 0; node < nodes; node++ {
			pump(node, 4)
		}
		ctrl.At(1234, "ctrl:send", func() { f.send(0, 3, lat+3) })
		// The drain reads shard state from the control loop, as the stall
		// detector's sweep reads the replicas' pending proposals.
		var drains []drain
		var sweep func()
		sweep = func() {
			var items []string
			for k := range deferred {
				items = append(items, deferred[k]...)
				deferred[k] = deferred[k][:0]
			}
			if len(items) > 0 {
				sort.Strings(items)
				drains = append(drains, drain{loops[0].Now(), items})
			}
			ctrl.After(250, "ctrl:sweep", sweep)
		}
		ctrl.At(250, "ctrl:sweep", sweep)
		co := NewCoordinator(ctrl, loops, func() Time { return lat }, f.exchange)
		co.everyWindow = every
		co.SetParallel(parallel)
		if err := co.RunUntil(5000); err != nil {
			t.Fatal(err)
		}
		return f.traces, drains, co.barriers
	}
	wantTraces, wantDrains, wantBarriers := run(1, false, true)
	if len(wantDrains) == 0 || len(wantTraces[3]) < 5 {
		t.Fatalf("reference schedule went slack: %d drains, node 3 saw %v", len(wantDrains), wantTraces[3])
	}
	for _, tc := range []struct {
		k        int
		parallel bool
	}{{1, false}, {2, false}, {2, true}, {4, false}, {4, true}} {
		traces, drains, barriers := run(tc.k, tc.parallel, false)
		if !reflect.DeepEqual(traces, wantTraces) {
			t.Errorf("K=%d parallel=%v: per-node traces differ from the window-by-window schedule\ngot  %v\nwant %v",
				tc.k, tc.parallel, traces, wantTraces)
		}
		if !reflect.DeepEqual(drains, wantDrains) {
			t.Errorf("K=%d parallel=%v: control drains differ\ngot  %v\nwant %v", tc.k, tc.parallel, drains, wantDrains)
		}
		if barriers*5 > wantBarriers {
			t.Errorf("K=%d parallel=%v: %d barriers against %d window by window", tc.k, tc.parallel, barriers, wantBarriers)
		}
	}
}
