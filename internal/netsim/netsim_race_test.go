//go:build race

package netsim

import (
	"testing"

	"stopwatch/internal/sim"
)

// TestRetainedPacketPoisonsPool: a node that keeps its delivered packet and
// writes to it after Deliver has corrupted a pooled packet, and the next
// AllocTo that draws it panics.
func TestRetainedPacketPoisonsPool(t *testing.T) {
	n, loop := testNet(t, LinkConfig{Latency: sim.Millisecond})
	var kept *Packet
	if err := n.Attach(&FuncNode{Addr: "b", Fn: func(p *Packet) { kept = p }}); err != nil {
		t.Fatal(err)
	}
	a, b := n.Endpoint("a"), n.Endpoint("b")
	n.Send(n.AllocTo(a, b, 64, "t", nil))
	loop.ProcessNextEvent()
	if kept == nil {
		t.Fatal("no delivery")
	}
	kept.Size = 128
	defer func() {
		if recover() == nil {
			t.Fatal("AllocTo handed out a packet written after recycle")
		}
	}()
	n.AllocTo(a, b, 64, "t", nil)
}
