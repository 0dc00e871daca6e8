package netsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// runDelayedSends drives seeded random traffic between five nodes — each
// pings random peers at random gaps with random sizes, and echoes every
// other ping it receives — over links shaped by their endpoints (nodes 0-2
// have access links with their own bandwidth, jitter and loss, nodes 3 and
// 4 none), each with its own constant sender-side delay. The delay is either handed
// to SendAfter or waited out on a timer that then calls Send. It returns
// each node's delivery trace and the fabric counters.
func runDelayedSends(t *testing.T, byTimer bool, shards int, parallel bool) ([][]string, netsim.Stats) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ctrl := sim.NewLoop()
	n, err := netsim.New(ctrl, sim.NewSource(5).Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	must(err)
	loops := make([]*sim.Loop, shards)
	for i := range loops {
		loops[i] = sim.NewLoop()
	}
	must(n.SetShards(loops))

	const nodes = 5
	eps := make([]*netsim.Endpoint, nodes)
	for i := range eps {
		addr := netsim.Addr(fmt.Sprintf("n%d", i))
		must(n.AssignShard(addr, i%shards))
		eps[i] = n.Endpoint(addr)
		if i < 3 {
			must(n.SetAccess(addr, netsim.LinkConfig{
				Latency:      sim.Millisecond + sim.Time(i+1)*50*sim.Microsecond,
				JitterMax:    sim.Time(i) * 150 * sim.Microsecond,
				BandwidthBps: int64(i) * 4 << 20, // 0 (infinite), 4 or 8 MiB/s: packets queue
				LossProb:     float64(i) * 0.1,
			}))
		}
	}
	// delay[i][j] is the link's constant: zero on some, and on the others
	// long enough that several later sends overtake a waiting one.
	var delay [nodes][nodes]sim.Time
	for i := range eps {
		for j := range eps {
			if i != j {
				delay[i][j] = sim.Time((i*7+j*3)%5) * 130 * sim.Microsecond
			}
		}
	}
	send := func(from, to int, size int, kind string, k int) {
		p := n.AllocTo(eps[from], eps[to], size, kind, k)
		if !byTimer {
			n.SendAfter(p, delay[from][to])
			return
		}
		loops[from%shards].AfterTimer(delay[from][to], "defer", func(_, b any, _ uint64) {
			n.Send(b.(*netsim.Packet))
		}, nil, p, 0)
	}

	traces := make([][]string, nodes)
	for i := range eps {
		i := i
		l := loops[i%shards]
		must(n.Attach(&netsim.FuncNode{Addr: eps[i].Addr(), Fn: func(p *netsim.Packet) {
			traces[i] = append(traces[i], fmt.Sprintf("%d:%s/%s#%v/%dB", l.Now(), p.Src, p.Kind, p.Payload, p.Size))
			if k := p.Payload.(int); p.Kind == "ping" && k%2 == 0 {
				for j := range eps {
					if eps[j].Addr() == p.Src {
						send(i, j, p.Size/2, "echo", k)
					}
				}
			}
		}}))
		r := sim.NewSource(uint64(100 + i)).FastStream("traffic")
		var pump func(k int)
		pump = func(k int) {
			if k == 0 {
				return
			}
			l.AfterTimer(r.UniformDur(0, 400*sim.Microsecond), "pump", func(_, _ any, _ uint64) {
				to := (i + 1 + int(r.UniformDur(0, nodes-1))) % nodes
				send(i, to, 64+int(r.UniformDur(0, 1400)), "ping", k)
				pump(k - 1)
			}, nil, nil, 0)
		}
		pump(120)
	}

	co := sim.NewCoordinator(ctrl, loops, n.Lookahead, n.Exchange)
	co.SetParallel(parallel)
	must(co.RunUntil(200 * sim.Millisecond))
	return traces, n.Stats()
}

// TestSendAfterEqualsTimerThenSend: a sender-side delay that is constant
// per link is unobservable in how it is waited out. SendAfter draws the
// link's loss and jitter and takes its FIFO horizons and arrival key when
// it is called, a timer that calls Send does so one delay later — in the
// same per-link order and for the same departure instants, so every node
// sees the same deliveries at the same instants, for every shard count,
// sequential and parallel.
func TestSendAfterEqualsTimerThenSend(t *testing.T) {
	want, wantStats := runDelayedSends(t, true, 1, false)
	for i, tr := range want {
		if len(tr) < 50 {
			t.Fatalf("node %d saw only %d deliveries", i, len(tr))
		}
	}
	if wantStats.Lost == 0 {
		t.Fatal("the lossy links dropped nothing")
	}
	for _, k := range []int{1, 2, 4} {
		for _, parallel := range []bool{false, true} {
			got, stats := runDelayedSends(t, false, k, parallel)
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("K=%d parallel=%v: stats %+v, want %+v", k, parallel, stats, wantStats)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("K=%d parallel=%v: node %d trace diverged\ngot  %v\nwant %v", k, parallel, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSendAfterRefusesToDepartOutOfOrder: a link draws in call order, so a
// packet asked to depart before the link's previous one cannot be served —
// it panics instead of silently reordering the stream.
func TestSendAfterRefusesToDepartOutOfOrder(t *testing.T) {
	loop := sim.NewLoop()
	n, err := netsim.New(loop, sim.NewSource(1).Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n.SendAfter(n.AllocPacket("a", "b", 100, "x", nil), 50*sim.Microsecond)
	n.SendAfter(n.AllocPacket("a", "b", 100, "x", nil), 50*sim.Microsecond)
	n.Send(n.AllocPacket("a", "c", 100, "x", nil)) // another link: its own order
	defer func() {
		if recover() == nil {
			t.Fatal("a send departing before its link's previous packet did not panic")
		}
	}()
	n.Send(n.AllocPacket("a", "b", 100, "x", nil))
}
