package vmm

import (
	"testing"
	"testing/quick"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Property: three replicas of a randomized workload on hosts with random
// clock offsets, drifts, rates and coresident load stay in virtual-time
// lockstep — identical outputs and interrupt counts — under the full
// proposal/pacing machinery.
func TestReplicaLockstepProperty(t *testing.T) {
	f := func(seed uint64, offRaw [3]uint16, driftRaw [3]int8, rateRaw [3]uint8, loadHost uint8, burstRaw uint8) bool {
		loop := sim.NewLoop()
		src := sim.NewSource(seed)
		boots := make([]sim.Time, 3)
		hosts := make([]*Host, 3)
		for i := 0; i < 3; i++ {
			cfg := DefaultConfig()
			// 0.8e9 .. 1.3e9 branches/s.
			cfg.BaseRate = 800_000_000 + int64(rateRaw[i]%6)*100_000_000
			offset := sim.Time(offRaw[i]%10000) * sim.Microsecond
			drift := float64(driftRaw[i]) * 1e-6
			h, err := NewHost([]string{"A", "B", "C"}[i], loop,
				src.Stream("h"+string(rune('A'+i))), sim.NewClock(offset, drift), cfg)
			if err != nil {
				return false
			}
			hosts[i] = h
			boots[i] = h.Clock().Read(0)
		}
		var rts []*Runtime
		var nds []*NetDevice
		for i := 0; i < 3; i++ {
			rt, err := NewRuntime(hosts[i], "g", echoApp{}, boots)
			if err != nil {
				return false
			}
			rt.OnSend = SendSinkFunc(func(a guest.IOAction) {})
			nd, err := NewNetDevice(rt, 3)
			if err != nil {
				return false
			}
			rts = append(rts, rt)
			nds = append(nds, nd)
		}
		for i := range nds {
			i := i
			origin := rts[i].Host().Name()
			nds[i].SendProposal = ProposalSinkFunc(func(view, seq uint64, v vtime.Virtual) {
				for j := range nds {
					if j != i {
						j := j
						loop.After(400*sim.Microsecond, "prop", func() { nds[j].HandlePeerProposal(origin, view, seq, v) })
					}
				}
			})
			rts[i].OnPace = PaceSinkFunc(func(v vtime.Virtual, _ int64, _ vtime.EpochSample) {
				for j := range rts {
					if j != i {
						j := j
						name := rts[i].Host().Name()
						loop.After(400*sim.Microsecond, "pace", func() { rts[j].OnPeerVirt(name, v) })
					}
				}
			})
			rts[i].Start()
		}
		// Coresident load on one random host.
		load, err := NewRuntime(hosts[loadHost%3], "load", loadApp{}, []sim.Time{0, 0, 0})
		if err != nil {
			return false
		}
		load.OnSend = SendSinkFunc(func(a guest.IOAction) {})
		load.Start()
		// A short randomized packet stream.
		bursts := int(burstRaw%12) + 4
		for k := 0; k < bursts; k++ {
			seq := uint64(k + 1)
			at := sim.Time(k+1) * 15 * sim.Millisecond
			for i, nd := range nds {
				nd := nd
				skew := sim.Time(i) * 200 * sim.Microsecond
				loop.At(at+skew, "in", func() {
					nd.HandleInbound(seq, guest.Payload{Src: "c", Size: 256, Data: seq})
				})
			}
		}
		if err := loop.RunUntil(sim.Second); err != nil {
			return false
		}
		d0 := rts[0].VM().OutputDigest()
		for _, rt := range rts {
			if rt.VM().OutputDigest() != d0 {
				return false
			}
			// At a fixed REAL-time cutoff, replicas sit at different points
			// of the same virtual trajectory, so progress-dependent counters
			// (branches, timer ticks) legitimately differ. Event counters
			// tied to the finite packet stream must agree exactly.
			a, b := rt.VM().Stats(), rts[0].VM().Stats()
			if a.NetInterrupts != b.NetInterrupts ||
				a.DiskInterrupts != b.DiskInterrupts ||
				a.PacketsSent != b.PacketsSent ||
				a.PacketsReceived != b.PacketsReceived {
				return false
			}
			if rt.Stats().Divergences != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
