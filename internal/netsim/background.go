package netsim

import (
	"fmt"

	"stopwatch/internal/sim"
)

// Broadcaster reproduces the paper's experimental backdrop: the three hosts
// sat on a /24 campus subnet whose broadcast traffic (ARP and friends,
// 50–100 packets per second) was replicated to every guest throughout the
// experiments. A Broadcaster injects that background load so the
// reproduction's numbers, like the paper's, include it.
type Broadcaster struct {
	net      *Network
	loop     *sim.Loop
	rng      *sim.Rand
	src      *Endpoint
	targets  []*Endpoint
	meanGap  sim.Time
	size     int
	running  bool
	sent     uint64
	stopTime sim.Time
}

// BroadcasterConfig configures background broadcast traffic.
type BroadcasterConfig struct {
	Src Addr
	// Targets receive each broadcast packet.
	Targets []Addr
	// RatePerSec is the mean broadcast rate (Poisson arrivals).
	RatePerSec float64
	// Size is bytes per packet (ARP-ish: 60).
	Size int
}

// NewBroadcaster creates the generator; call Start to begin.
func NewBroadcaster(net *Network, loop *sim.Loop, rng *sim.Rand, cfg BroadcasterConfig) (*Broadcaster, error) {
	if net == nil || loop == nil || rng == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrNet)
	}
	if cfg.RatePerSec <= 0 || cfg.Size <= 0 || len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("%w: broadcaster %+v", ErrNet, cfg)
	}
	b := &Broadcaster{
		net:     net,
		loop:    loop,
		rng:     rng,
		src:     net.Endpoint(cfg.Src),
		meanGap: sim.Time(float64(sim.Second) / cfg.RatePerSec),
		size:    cfg.Size,
	}
	for _, a := range cfg.Targets {
		b.targets = append(b.targets, net.Endpoint(a))
	}
	return b, nil
}

// Start begins emitting broadcasts until the given stop time.
func (b *Broadcaster) Start(until sim.Time) {
	if b.running {
		return
	}
	b.running = true
	b.stopTime = until
	b.scheduleNext()
}

func (b *Broadcaster) scheduleNext() {
	gap := b.rng.ExpDur(b.meanGap)
	b.loop.AfterTimer(gap, "bcast", broadcastTimer, b, nil, 0)
}

func broadcastTimer(a, _ any, _ uint64) {
	b := a.(*Broadcaster)
	if b.loop.Now() >= b.stopTime {
		b.running = false
		return
	}
	for _, dst := range b.targets {
		b.net.Send(b.net.AllocTo(b.src, dst, b.size, "broadcast", nil))
	}
	b.sent++
	b.scheduleNext()
}

// Sent returns the number of broadcast rounds emitted.
func (b *Broadcaster) Sent() uint64 { return b.sent }
