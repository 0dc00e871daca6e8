// Package vtime implements StopWatch's virtual time (Sec. IV): the guest's
// only view of "real" time, a deterministic function of the instructions
// (branches) it has executed so far:
//
//	virt(instr) = slope·instr + start          (Eqn. 1)
//
// start is set once from the median of the replicas' boot real times;
// slope starts from the hosts' tick rate. Optionally, after each epoch of I
// instructions the VMMs exchange (duration D_k, real time R_k) pairs, pick
// the median real time R*_k and the duration D*_k from the same machine,
// and re-fit:
//
//	start_{k+1} = virt_k(I)
//	slope_{k+1} = clamp[ℓ,u]( (R*_k − virt_k(I) + D*_k) / I )
//
// Because the inputs to every adjustment are identical medians across
// replicas, all replicas compute identical virtual clocks — which is what
// makes guest execution deterministic.
package vtime

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"stopwatch/internal/sim"
)

// ErrBadClock reports invalid virtual-clock parameters.
var ErrBadClock = errors.New("vtime: invalid clock parameter")

// Virtual is a virtual-time instant in nanoseconds, the guest-visible
// analogue of sim.Time.
type Virtual int64

// Milliseconds expresses v in milliseconds.
func (v Virtual) Milliseconds() float64 { return float64(v) / 1e6 }

// Seconds expresses v in seconds.
func (v Virtual) Seconds() float64 { return float64(v) / 1e9 }

// String renders the virtual instant.
func (v Virtual) String() string { return fmt.Sprintf("v=%.6fs", v.Seconds()) }

// Clock is the per-guest virtual clock. All replicas of a guest hold
// identical Clock state at identical instruction counts.
type Clock struct {
	start Virtual // virt at epochBase instructions
	slope float64 // virtual ns per instruction

	epochBase int64 // instruction count where current epoch began
}

// A clock starts at InitialSlope virtual ns per instruction (the machines'
// tick rate: one branch is one virtual ns), and an epoch adjustment clamps
// the slope to [slopeLo, slopeHi] ([ℓ,u] in the paper). slopeLo > 0, so
// virtual time always advances.
const (
	InitialSlope = 1.0
	slopeLo      = 0.25
	slopeHi      = 4.0
)

// Config parameterizes a virtual clock.
type Config struct {
	// BootTimes are the replicas' boot real times (host clock reads); the
	// median becomes `start`. One entry (degenerate deployment) is allowed.
	BootTimes []sim.Time
}

// New builds a virtual clock from the replica boot times.
func New(cfg Config) (*Clock, error) {
	if len(cfg.BootTimes) == 0 {
		return nil, fmt.Errorf("%w: no boot times", ErrBadClock)
	}
	return &Clock{
		start: Virtual(medianTime(cfg.BootTimes)),
		slope: InitialSlope,
	}, nil
}

func medianTime(ts []sim.Time) sim.Time {
	// Replica groups are 3 (or 5) wide: sort a stack copy instead of
	// allocating a slice + sort.Slice scratch per clock construction.
	var buf [8]sim.Time
	var s []sim.Time
	if len(ts) <= len(buf) {
		s = buf[:len(ts)]
	} else {
		s = make([]sim.Time, len(ts))
	}
	copy(s, ts)
	slices.Sort(s)
	return s[len(s)/2]
}

// At returns the virtual time after instr total executed instructions.
// instr must be nondecreasing across calls within an epoch; the clock does
// not itself track the guest's counter.
func (c *Clock) At(instr int64) Virtual {
	d := instr - c.epochBase
	return c.start + Virtual(c.slope*float64(d))
}

// InstrFor inverts At: the smallest instruction count (>= epoch base) whose
// virtual time is >= v. Used by the VMM to translate virtual deadlines
// (timer ticks, delivery times) into instruction targets.
func (c *Clock) InstrFor(v Virtual) int64 {
	if v <= c.start {
		return c.epochBase
	}
	d := float64(v-c.start) / c.slope
	i := int64(d)
	if c.At(c.epochBase+i) < v {
		i++
	}
	return c.epochBase + i
}

// BoundaryFor returns the smallest multiple of every (at or past the epoch
// base) whose virtual time is >= v: the first periodic exit point at which
// a virtual deadline has arrived. Unlike InstrFor, whose float division can
// land one instruction high, the result is checked against At on both
// sides, because a caller that skips the boundaries before it must never
// skip the one that counts.
func (c *Clock) BoundaryFor(v Virtual, every int64) int64 {
	b := (c.InstrFor(v) + every - 1) / every * every
	for b-every >= c.epochBase && c.At(b-every) >= v {
		b -= every
	}
	for c.At(b) < v {
		b += every
	}
	return b
}

// Slope returns the current slope (virtual ns per instruction).
func (c *Clock) Slope() float64 { return c.slope }

// Start returns the virtual time at the current epoch base.
func (c *Clock) Start() Virtual { return c.start }

// EpochBase returns the instruction count at which the current epoch began
// (0 until the first AdjustEpoch).
func (c *Clock) EpochBase() int64 { return c.epochBase }

// Restore rewinds the fit state to a recorded (start, slope, epochBase)
// triple — checkpoint restore for replica replacement. The slope must lie
// inside the clamp [slopeLo, slopeHi].
func (c *Clock) Restore(start Virtual, slope float64, epochBase int64) error {
	if err := c.CheckRestore(slope, epochBase); err != nil {
		return err
	}
	c.start = start
	c.slope = slope
	c.epochBase = epochBase
	return nil
}

// CheckRestore reports whether Restore would accept the fit, changing
// nothing: a caller restoring more than the clock vets every part first.
func (c *Clock) CheckRestore(slope float64, epochBase int64) error {
	if slope < slopeLo || slope > slopeHi {
		return fmt.Errorf("%w: restored slope %v outside [%v,%v]", ErrBadClock, slope, slopeLo, slopeHi)
	}
	if epochBase < 0 {
		return fmt.Errorf("%w: restored epoch base %d", ErrBadClock, epochBase)
	}
	return nil
}

// EpochSample is one replica's report at the end of an epoch: the real-time
// duration D over which it executed the epoch's I instructions, and its
// host real time R at the end.
type EpochSample struct {
	D sim.Time // duration of the epoch on this host
	R sim.Time // host real time at epoch end
}

// AdjustEpoch re-fits the clock after an epoch of epochInstr instructions,
// given all replicas' samples, and returns the star it picked. Per the
// paper, the median R is selected and the D from that same replica is used.
// All replicas must call this with identical sample sets (they exchange
// samples via the VMM protocol), keeping their clocks identical. samples is
// the caller's scratch: it is sorted in place, so an adjustment allocates
// nothing.
func (c *Clock) AdjustEpoch(epochInstr int64, samples []EpochSample) (EpochSample, error) {
	if epochInstr <= 0 {
		return EpochSample{}, fmt.Errorf("%w: epoch of %d instructions", ErrBadClock, epochInstr)
	}
	if len(samples) == 0 {
		return EpochSample{}, fmt.Errorf("%w: no epoch samples", ErrBadClock)
	}
	// Median by R; take D from the same machine.
	slices.SortFunc(samples, func(a, b EpochSample) int {
		return cmp.Or(cmp.Compare(a.R, b.R), cmp.Compare(a.D, b.D))
	})
	star := samples[len(samples)/2]

	virtEnd := c.At(c.epochBase + epochInstr)
	raw := (float64(star.R) - float64(virtEnd) + float64(star.D)) / float64(epochInstr)
	c.start = virtEnd
	c.epochBase += epochInstr
	c.slope = min(max(raw, slopeLo), slopeHi)
	return star, nil
}

// PIT models the guest's Programmable Interval Timer as virtualized by
// StopWatch: ticks occur at fixed virtual-time intervals, so the k-th timer
// interrupt is due when virtual time crosses k·period.
type PIT struct {
	period Virtual
	next   Virtual
	count  int64
}

// NewPIT returns a PIT with the given tick frequency (Hz) in virtual time.
// The paper's guests used 250 Hz.
func NewPIT(hz int) (*PIT, error) {
	if hz <= 0 {
		return nil, fmt.Errorf("%w: PIT frequency %d", ErrBadClock, hz)
	}
	p := Virtual(int64(sim.Second) / int64(hz))
	return &PIT{period: p, next: p}, nil
}

// Due returns how many timer interrupts are pending at virtual time v and
// advances the tick cursor past them.
func (p *PIT) Due(v Virtual) int {
	n := 0
	for v >= p.next {
		n++
		p.count++
		p.next += p.period
	}
	return n
}

// Ticks returns the total interrupts delivered so far.
func (p *PIT) Ticks() int64 { return p.count }

// Next returns the next tick deadline (checkpoint capture).
func (p *PIT) Next() Virtual { return p.next }

// Restore rewinds the tick cursor to a recorded (next, count) pair —
// checkpoint restore for replica replacement.
func (p *PIT) Restore(next Virtual, count int64) {
	p.next = next
	p.count = count
}

// Period returns the virtual tick period.
func (p *PIT) Period() Virtual { return p.period }

// Counter returns the PIT countdown register value at virtual time v, as a
// guest would read it: the remaining fraction of the current period scaled
// to the hardware reload constant (65536 for the 8254 in mode 2 at maximum
// divisor). Purely virtual-time-derived, per Sec. IV-B "Reading counters".
func (p *PIT) Counter(v Virtual) uint16 {
	phase := int64(v) % int64(p.period)
	remaining := int64(p.period) - phase
	return uint16((remaining * 65536) / int64(p.period))
}

// TSC models the virtualized time stamp counter: a tick count derived from
// virtual time by a constant frequency, per Sec. IV-B "rdtsc calls".
type TSC struct {
	// HzGHz is ticks per virtual nanosecond (e.g. 3.0 for the paper's
	// 3.00GHz hosts).
	HzGHz float64
}

// Read returns the TSC value at virtual time v.
func (t TSC) Read(v Virtual) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(float64(v) * t.HzGHz)
}

// RTC models the virtualized CMOS real-time clock, which reports virtual
// time truncated to seconds (Sec. IV-B: "time to the nearest second").
type RTC struct{}

// Read returns whole virtual seconds at v.
func (RTC) Read(v Virtual) int64 {
	if v < 0 {
		return 0
	}
	return int64(v) / int64(sim.Second)
}
