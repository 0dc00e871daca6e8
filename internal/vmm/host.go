package vmm

import (
	"fmt"

	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
)

// Host is one physical machine: a drifting clock, a CPU shared by resident
// guest replicas, a disk with FIFO service, and an I/O activity level that
// modulates device-model delays (the coresidency channel).
type Host struct {
	name  string
	loop  *sim.Loop
	rng   *sim.Rand
	clock *sim.Clock
	cfg   Config

	// consumers are the resident guests' execution engines, in residence
	// order; they report busy/idle transitions through setBusy (processor
	// sharing).
	consumers []*exec
	busyCount int

	// Chunk-event ranks (nextRank): rankHi and rankLo are how far above
	// and below rankOrigin they reach, rankLoAt the barrier instant rankLo's
	// current block belongs to.
	rankHi   uint64
	rankLo   uint64
	rankLoAt sim.Time

	// Disk FIFO horizon (like link serialization).
	diskFree sim.Time
	diskOps  uint64
	// diskBusy accumulates total disk service time (seek + transfer +
	// jitter, summed over requests) — the observability plane's per-host
	// disk-load signal.
	diskBusy sim.Time

	// ioInFlight counts device-model work in progress (packets being
	// processed, disk requests outstanding) across all residents.
	ioInFlight int

	// failed marks a machine whose VMM died: its device models process
	// nothing and its fabric endpoint goes silent until Revive.
	failed bool

	// propLatency observes, for every replica that has resided here, the
	// loop-time latency from its own proposal (the last one, if a view
	// change re-proposed) to the sequence's median resolution. Passive: it
	// never feeds back into device behavior.
	propLatency metrics.Histogram
}

// ProposalLatencyBuckets spans a proposal round trip: 10µs (same-instant
// resolution after the Dom0 delay) up to ~2.6s (a stalled group waiting
// out a reconfiguration).
var ProposalLatencyBuckets = metrics.ExpBuckets(int64(10*sim.Microsecond), 4, 10)

// NewHost creates a host.
func NewHost(name string, loop *sim.Loop, rng *sim.Rand, clock *sim.Clock, cfg Config) (*Host, error) {
	if name == "" || loop == nil || rng == nil || clock == nil {
		return nil, fmt.Errorf("%w: host needs name, loop, rng, clock", ErrVMM)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Host{name: name, loop: loop, rng: rng, clock: clock, cfg: cfg,
		propLatency: metrics.NewHistogram(ProposalLatencyBuckets)}, nil
}

// ProposalLatency returns the host's proposal-to-resolution latency
// buckets, on ProposalLatencyBuckets.
func (h *Host) ProposalLatency() metrics.Histogram { return h.propLatency }

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Clock returns the host's hardware clock.
func (h *Host) Clock() *sim.Clock { return h.clock }

// Loop returns the simulation loop.
func (h *Host) Loop() *sim.Loop { return h.loop }

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// Fail marks the machine's VMM dead: the whole-machine failure domain. The
// cluster stops the resident runtimes and silences the host's fabric
// endpoint; the flag is what device models and liveness checks consult.
func (h *Host) Fail() { h.failed = true }

// Failed reports whether the machine's VMM is dead.
func (h *Host) Failed() bool { return h.failed }

// Revive clears the failed mark after repair — the machine rejoins the
// cloud empty (its previous residents were evacuated or torn down).
func (h *Host) Revive() { h.failed = false }

// register adds a CPU consumer (called by runtimes at construction).
func (h *Host) register(c *exec) {
	h.consumers = append(h.consumers, c)
}

// unregister removes a CPU consumer (an evicted or replaced replica) so
// the host's rescale fan-out does not grow without bound under churn.
func (h *Host) unregister(c *exec) {
	for i, have := range h.consumers {
		if have == c {
			h.consumers = append(h.consumers[:i], h.consumers[i+1:]...)
			return
		}
	}
}

// Rank layout: ranks handed out inside events grow upward from rankOrigin,
// each barrier instant takes a block below every earlier one.
const (
	rankOrigin = 1 << 62
	rankBlock  = 1 << 20
)

// nextRank returns the tie-break rank of a freshly armed execution chunk:
// the last component of its event key (sim.Loop.AtKeyedTimer), consulted
// only between chunks that end at the same instant and began at the same
// instant — co-resident guests armed together, which then share every
// boundary for as long as they run at the same rate. Ticking, such chunks
// fired in the order their events were scheduled, and kept that order from
// boundary to boundary; a rank is that order made explicit, so it survives
// boundaries no event was scheduled for. Armed inside an event, a chunk
// was scheduled after everything pending: the next rank up. Armed at a
// coordinator barrier, it was scheduled before whatever the co-residents'
// events of that instant go on to schedule, so it goes below every rank
// handed out so far — but above the ranks of its own instant, which were
// armed before it.
func (h *Host) nextRank() uint64 {
	if !h.loop.Leading() {
		h.rankHi++
		return rankOrigin + h.rankHi
	}
	if now := h.loop.Now(); h.rankLo == 0 || now != h.rankLoAt {
		h.rankLoAt = now
		h.rankLo = (h.rankLo+rankBlock-1)/rankBlock*rankBlock + rankBlock
	}
	h.rankLo--
	return rankOrigin - h.rankLo
}

// setBusy reports a consumer's busy/idle transition and re-times exactly
// the chunks whose rate it changed. An idle guest runs at idleRate whatever
// the busy population, a busy one at BaseRate over busyShare. So a
// transition across 0↔1 re-times nobody: the share stays 1, and the guest
// that made it has no chunk in flight (it reports from its own exit and arms
// at its new rate afterwards). Any other re-times the busy residents and
// leaves the idle ones on the trajectory they armed.
func (h *Host) setBusy(delta int) {
	was := h.busyShare()
	h.busyCount = max(h.busyCount+delta, 0)
	if h.busyShare() == was {
		return
	}
	for _, c := range h.consumers {
		if c.busy {
			c.rescale()
		}
	}
}

// busyShare returns how many ways the CPU is split among busy guests: the
// busy population, or 1 while there is none.
func (h *Host) busyShare() int { return max(h.busyCount, 1) }

// busyRate returns the per-guest execution rate (branches per fabric
// second) for a busy guest under the current contention, including the
// host's clock drift.
func (h *Host) busyRate() float64 {
	return float64(h.cfg.BaseRate) * (1 + h.clock.Drift()) / float64(h.busyShare())
}

// idleRate returns the instruction rate of an idle-looping guest. Idle
// guests cost the host ~nothing (their HLT wakeups are negligible), so they
// advance at the nominal unshared rate; see DESIGN.md "Modeling decisions".
func (h *Host) idleRate() float64 {
	return float64(h.cfg.BaseRate) * (1 + h.clock.Drift())
}

// ioBegin marks the start of device-model work; ioEnd its completion.
func (h *Host) ioBegin() { h.ioInFlight++ }

// ioEndTimer is the typed callback form of ioEnd — per disk request and per
// processed packet, so it must not allocate a method value per scheduling.
func ioEndTimer(a, _ any, _ uint64) { a.(*Host).ioEnd() }
func (h *Host) ioEnd() {
	if h.ioInFlight > 0 {
		h.ioInFlight--
	}
}

// IOInFlight reports current device-model concurrency (for tests).
func (h *Host) IOInFlight() int { return h.ioInFlight }

// BusyCount reports the number of busy guests (for tests).
func (h *Host) BusyCount() int { return h.busyCount }

// ioDelay draws the Dom0 packet-processing delay: a floor, exponential
// jitter whose mean grows with concurrent host I/O, and — when some guest
// is busy on the CPU — a VCPU scheduling wait of up to one slice. Together
// these are the paper's λ→λ′ shift when a coresident victim is active.
func (h *Host) ioDelay() sim.Time {
	mean := float64(ioJitterMean) * (1 + ioLoadFactor*float64(h.ioInFlight))
	d := IOBaseDelay + h.rng.ExpDur(sim.Time(mean))
	if h.busyCount > 0 {
		d += h.rng.UniformDur(0, schedSlice)
	}
	return d
}

// diskService reserves the disk for one request and returns when the data
// will be ready: FIFO behind earlier requests, seek + transfer + jitter.
func (h *Host) diskService(bytes int) sim.Time {
	start := h.loop.Now()
	if h.diskFree > start {
		start = h.diskFree
	}
	transfer := sim.Time(int64(bytes) * int64(sim.Second) / diskBytesPerSec)
	svc := h.cfg.DiskSeek + transfer + h.rng.ExpDur(h.cfg.DiskJitterMean)
	h.diskFree = start + svc
	h.diskOps++
	h.diskBusy += svc
	return h.diskFree
}

// DiskOps reports the number of disk requests serviced.
func (h *Host) DiskOps() uint64 { return h.diskOps }

// DiskBusy reports the accumulated disk service time across all requests —
// monotone, so a sampler can difference it for utilization.
func (h *Host) DiskBusy() sim.Time { return h.diskBusy }

// DiskBacklog reports how far the disk's FIFO horizon extends past now: the
// time a new request would wait before service begins. Zero on an idle
// disk. It is exported as a per-host gauge (core.InstrumentMetrics): a host
// whose Dom0 disk tail is long also stretches its device-model processing
// delays (ioDelay grows with in-flight I/O), pushing proposal latencies
// toward the stall detector's deadline.
func (h *Host) DiskBacklog(now sim.Time) sim.Time {
	if h.diskFree > now {
		return h.diskFree - now
	}
	return 0
}
