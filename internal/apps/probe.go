package apps

import (
	"encoding/binary"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// ProbeApp is the attacker VM of Fig. 4: it receives a packet stream and
// records the guest-visible time of every delivery. Under StopWatch that
// clock is virtual time shaped by median delivery; under the baseline it is
// (scaled) host real time. The attacker's statistic is the inter-delivery
// gap distribution.
type ProbeApp struct {
	// HandlerCompute is the branch cost of the measurement handler.
	HandlerCompute int64

	times []vtime.Virtual
}

var _ guest.App = (*ProbeApp)(nil)

// NewProbeApp builds an attacker probe.
func NewProbeApp() *ProbeApp {
	return &ProbeApp{HandlerCompute: 10_000}
}

// Boot implements guest.App.
func (a *ProbeApp) Boot(ctx guest.Ctx) {}

// OnPacket implements guest.App: timestamp the delivery.
func (a *ProbeApp) OnPacket(ctx guest.Ctx, p guest.Payload) {
	a.times = append(a.times, ctx.Clock().Now())
	ctx.Compute(a.HandlerCompute)
}

// OnDiskDone implements guest.App (unused).
func (a *ProbeApp) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {}

// OnTimer implements guest.App (unused).
func (a *ProbeApp) OnTimer(ctx guest.Ctx, tag string) {}

// DeliveryTimes returns the recorded delivery clock readings.
func (a *ProbeApp) DeliveryTimes() []vtime.Virtual {
	out := make([]vtime.Virtual, len(a.times))
	copy(out, a.times)
	return out
}

// InterDeliveryGaps returns successive differences of the recorded times,
// as float64 nanoseconds — the attacker's observable.
func (a *ProbeApp) InterDeliveryGaps() []float64 {
	if len(a.times) < 2 {
		return nil
	}
	out := make([]float64, 0, len(a.times)-1)
	for i := 1; i < len(a.times); i++ {
		out = append(out, float64(a.times[i]-a.times[i-1]))
	}
	return out
}

// BeaconApp is a self-driving load generator: a periodic burst of compute,
// disk and network activity, standing in for a victim VM continuously
// serving content. Period and sizes are in guest time, so all replicas
// behave identically.
type BeaconApp struct {
	// Period between bursts (guest clock).
	Period vtime.Virtual
	// Compute per burst.
	Compute int64
	// DiskBytes read per burst.
	DiskBytes int
	// Sink receives a small packet per burst ("" disables).
	Sink netsim.Addr
	// Echo answers every inbound packet with a small reply to its source.
	Echo bool
	// Until, when positive, is the guest-clock instant after which the
	// beacon neither bursts nor echoes: every replica goes quiet at the same
	// virtual time, so an end-of-run audit can demand exact agreement.
	Until vtime.Virtual

	bursts int64
}

var _ guest.App = (*BeaconApp)(nil)

// NewBeaconApp returns a beacon with the given burst period.
func NewBeaconApp(period vtime.Virtual) *BeaconApp {
	return &BeaconApp{
		Period:    period,
		Compute:   2_000_000,
		DiskBytes: 64 << 10,
	}
}

// Boot implements guest.App.
func (a *BeaconApp) Boot(ctx guest.Ctx) {
	ctx.SetTimer(0, "burst")
}

// OnTimer implements guest.App: run one burst and re-arm.
func (a *BeaconApp) OnTimer(ctx guest.Ctx, tag string) {
	if tag != "burst" || a.stopped(ctx) {
		return
	}
	a.bursts++
	ctx.Compute(a.Compute)
	if a.DiskBytes > 0 {
		ctx.DiskRead("beacon", a.DiskBytes)
	}
	if a.Sink != "" {
		ctx.Send(a.Sink, 256, a.bursts)
	}
	ctx.SetTimer(a.Period, "burst")
}

func (a *BeaconApp) stopped(ctx guest.Ctx) bool {
	return a.Until > 0 && ctx.Clock().Now() >= a.Until
}

// OnPacket implements guest.App: with Echo set, reply to the sender with
// the packet's own data (so echoing keeps no state to checkpoint).
func (a *BeaconApp) OnPacket(ctx guest.Ctx, p guest.Payload) {
	if !a.Echo || a.stopped(ctx) {
		return
	}
	ctx.Compute(50_000)
	ctx.Send(p.Src, 128, p.Data)
}

// OnDiskDone implements guest.App (unused).
func (a *BeaconApp) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {}

// Bursts reports completed bursts.
func (a *BeaconApp) Bursts() int64 { return a.bursts }

// SnapshotAppend/RestoreSnapshot implement guest.Snapshotter: the burst
// counter is the only mutable state (period, sizes and sink are
// configuration the factory rebuilds identically), so beacon guests can be
// checkpointed and restored without replaying their lifetime.
func (a *BeaconApp) SnapshotAppend(buf []byte) []byte {
	return binary.AppendVarint(buf, a.bursts)
}

// RestoreSnapshot implements guest.Snapshotter.
func (a *BeaconApp) RestoreSnapshot(data []byte) error {
	r := guest.NewSnapshotReader(data, ErrApp, "beacon snapshot")
	bursts := r.Varint("bursts varint")
	if err := r.End(); err != nil {
		return err
	}
	a.bursts = bursts
	return nil
}

var _ guest.Snapshotter = (*BeaconApp)(nil)

// ProbeSource drives the attacker's inbound packet stream from outside the
// cloud (e.g. a colluder, or just ambient traffic the attacker watches).
type ProbeSource struct {
	loop *sim.Loop
	rng  *sim.Rand
	net  *netsim.Network
	src  *netsim.Endpoint
	dst  *netsim.Endpoint
	gap  sim.Time

	sent   uint64
	stopAt sim.Time

	// Constant, when true, emits at exactly the mean gap (the attacker's
	// best probing strategy: inter-delivery gaps then measure pure system
	// delay variation). False gives Poisson arrivals.
	Constant bool

	// OnSend observes each emission (1-based sequence, emission time).
	OnSend func(seq uint64, at sim.Time)
}

// NewProbeSource sends packets from src to dst with exponential gaps of the
// given mean.
func NewProbeSource(net *netsim.Network, loop *sim.Loop, rng *sim.Rand, src, dst netsim.Addr, meanGap sim.Time) *ProbeSource {
	return &ProbeSource{loop: loop, rng: rng, net: net, src: net.Endpoint(src), dst: net.Endpoint(dst), gap: meanGap}
}

// Start begins the stream until the given time.
func (p *ProbeSource) Start(until sim.Time) {
	p.stopAt = until
	p.next()
}

func (p *ProbeSource) next() {
	gap := p.gap
	if !p.Constant {
		gap = p.rng.ExpDur(p.gap)
	}
	p.loop.After(gap, "probe:send", func() {
		if p.loop.Now() >= p.stopAt {
			return
		}
		p.sent++
		if p.OnSend != nil {
			p.OnSend(p.sent, p.loop.Now())
		}
		p.net.Send(p.net.AllocTo(p.src, p.dst, 256, "probe", p.sent))
		p.next()
	})
}

// Sent reports emitted probe packets.
func (p *ProbeSource) Sent() uint64 { return p.sent }
