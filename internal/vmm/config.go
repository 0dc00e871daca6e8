// Package vmm models the machines of the cloud and the two hypervisors the
// paper compares: the StopWatch VMM (virtual-time clocks, Δd disk delivery,
// Δn median network delivery, egress tunnelling, replica pacing) and a
// baseline unmodified-Xen-like VMM (interrupts delivered as they happen,
// guests see real time).
//
// The host model is where the timing side channel physically lives:
// coresident activity changes a guest's CPU share (and hence how fast its
// virtual time advances in real time) and the host's I/O service delays
// (and hence when the device model observes packets). Under the baseline
// VMM both leak directly into guest-observable timings; under StopWatch
// they perturb only one of three median inputs.
package vmm

import (
	"errors"
	"fmt"

	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// ErrVMM reports invalid VMM configuration or use.
var ErrVMM = errors.New("vmm: invalid")

// Config carries the tunables shared by both VMM flavors. The zero value is
// not valid; use DefaultConfig. What no program varies is a constant: the
// PIT rate, the pacing interval, the Dom0 load coupling and disk bandwidth
// below, and the virtual clock's initial slope and clamp (vtime).
type Config struct {
	// BaseRate is the host CPU's nominal guest execution rate in branches
	// per second. Contended guests share it.
	BaseRate int64
	// ExitEvery bounds branches between guest-caused VM exits during long
	// computations. Exits also happen at every I/O instruction.
	ExitEvery int64
	// DeltaN is the network-interrupt delivery offset Δn in virtual time
	// (paper: translates to ~7–12 ms real).
	DeltaN vtime.Virtual
	// DeltaD is the disk/DMA-interrupt delivery offset Δd in virtual time
	// (paper: ~8–15 ms real).
	DeltaD vtime.Virtual
	// MaxLead bounds how far (in virtual time) a replica may run ahead of
	// the farthest-behind peer before it is paused ("slowing the fastest
	// replica", Sec. V-A).
	MaxLead vtime.Virtual

	// DiskSeek is the fixed per-request disk positioning time.
	DiskSeek sim.Time
	// DiskJitterMean is the mean exponential service-time jitter.
	DiskJitterMean sim.Time

	// EpochInstr, when positive, enables the optional coarse
	// re-synchronization of virtual and real time every EpochInstr branches
	// (Sec. IV-A): each boundary is a barrier over the live replica group,
	// whose (D, R) samples ride the pacing beacons (EpochCoordinator). Must
	// be a multiple of ExitEvery.
	EpochInstr int64

	// CheckpointInstr, when positive, makes each replica whose app supports
	// snapshotting (guest.Snapshotter) capture a checkpoint into the guest's
	// determinism journal every CheckpointInstr branches. The journal then
	// truncates its pre-checkpoint prefix, bounding replacement replay work
	// by the checkpoint interval instead of the guest's lifetime. Must be a
	// multiple of ExitEvery, like EpochInstr.
	CheckpointInstr int64
}

// The Dom0 device model's packet-processing delay (Host.ioDelay): a floor of
// IOBaseDelay, exponential jitter of mean ioJitterMean on an otherwise idle
// host, scaled by 1 + ioLoadFactor per concurrent host I/O (the coresidency
// channel), and, while another guest is busy on the host, a VCPU scheduling
// wait of U[0, schedSlice) for CPU. The wait is the dominant coresidency
// timing channel on a real hypervisor (the attacker's interrupt waits out the
// victim's time slice). The median tolerates one slow proposal — divergence
// needs a single delay exceeding the full Δn — so a strong load coupling is
// safe at Δn = 12 ms.
const (
	IOBaseDelay  = 200 * sim.Microsecond
	ioJitterMean = 200 * sim.Microsecond
	ioLoadFactor = 1.0
	schedSlice   = 3 * sim.Millisecond
)

// The rest of the machine model: the guest timer (paper: 250 Hz PIT), how
// often a replica reports its progress to its peers, and the disk's
// transfer bandwidth (an 80 MB/s rotating disk).
const (
	pitHz           = 250
	pitPeriod       = sim.Second / pitHz
	PaceInterval    = 2 * sim.Millisecond
	diskBytesPerSec = 80 << 20
)

// DefaultConfig returns the tunables used throughout the reproduction.
// Rates are chosen so that one branch ≈ one virtual nanosecond, putting Δn
// and Δd in the paper's regime relative to packet RTTs and disk times.
func DefaultConfig() Config {
	return Config{
		BaseRate:  1_000_000_000, // 1e9 branches/s
		ExitEvery: 250_000,       // 0.25 ms of virtual time between exits
		// Δn must cover: pacing slack between the two fastest replicas
		// (MaxLead + reporting lag), Dom0 processing-delay tails, and
		// proposal propagation. 12ms over a 4ms MaxLead leaves ~6ms of
		// margin against the I/O tail — the regime the paper reports as
		// "7-12ms real" (Sec. VII-A).
		DeltaN:         vtime.Virtual(12 * sim.Millisecond),
		DeltaD:         vtime.Virtual(12 * sim.Millisecond),
		MaxLead:        vtime.Virtual(4 * sim.Millisecond),
		DiskSeek:       4 * sim.Millisecond,
		DiskJitterMean: sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.BaseRate <= 0:
		return fmt.Errorf("%w: BaseRate %d", ErrVMM, c.BaseRate)
	case c.ExitEvery <= 0:
		return fmt.Errorf("%w: ExitEvery %d", ErrVMM, c.ExitEvery)
	case c.DeltaN <= 0 || c.DeltaD <= 0:
		return fmt.Errorf("%w: DeltaN %v DeltaD %v", ErrVMM, c.DeltaN, c.DeltaD)
	case c.MaxLead <= 0:
		return fmt.Errorf("%w: MaxLead %v", ErrVMM, c.MaxLead)
	case c.DiskSeek < 0 || c.DiskJitterMean < 0:
		return fmt.Errorf("%w: disk params", ErrVMM)
	case c.EpochInstr < 0:
		return fmt.Errorf("%w: EpochInstr %d", ErrVMM, c.EpochInstr)
	case c.EpochInstr > 0 && c.EpochInstr%c.ExitEvery != 0:
		return fmt.Errorf("%w: EpochInstr %d must be a multiple of ExitEvery %d",
			ErrVMM, c.EpochInstr, c.ExitEvery)
	case c.CheckpointInstr < 0:
		return fmt.Errorf("%w: CheckpointInstr %d", ErrVMM, c.CheckpointInstr)
	case c.CheckpointInstr > 0 && c.CheckpointInstr%c.ExitEvery != 0:
		return fmt.Errorf("%w: CheckpointInstr %d must be a multiple of ExitEvery %d",
			ErrVMM, c.CheckpointInstr, c.ExitEvery)
	}
	return nil
}
