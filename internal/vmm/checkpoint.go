package vmm

import (
	"fmt"

	"stopwatch/internal/guest"
	"stopwatch/internal/vtime"
)

// Checkpointed journals. A checkpoint is a replica-identical snapshot of a
// guest replica taken at a deterministic instruction point: because every
// replica holds identical logical state at identical instruction counts,
// all replicas capture byte-identical checkpoints and the journal keeps
// whichever arrives first (the same first-write-wins rule the delivery
// records use). Once a checkpoint is
// accepted the journal truncates every delivery record the checkpoint
// already covers, so replacement replay cost is bounded by the checkpoint
// interval instead of the guest's lifetime.
//
// Capture happens at the first VM exit at or past each multiple of
// Config.CheckpointInstr, BEFORE any epoch adjustment at the same exit —
// the pre-adjust clock state is what every replica can reproduce, and
// replay re-applies the journaled epoch star afterwards exactly as live
// execution did.

// Checkpoint is one captured replica state. Fields cover everything a
// replacement runtime needs to resume mid-stream: the instruction count and
// virtual time of the capturing exit, the virtual-clock fit, the PIT tick
// cursor, the disk-interrupt sequence, both pending interrupt queues, and
// the guest VM snapshot (op queue, timers, output log, app state).
type Checkpoint struct {
	Instr int64
	Virt  vtime.Virtual

	ClockStart     vtime.Virtual
	ClockSlope     float64
	ClockEpochBase int64
	// EpochsApplied is the number of epoch adjustments folded into the
	// clock at capture (journaled stars below it can be pruned).
	EpochsApplied int64

	PITNext  vtime.Virtual
	PITCount int64

	DiskSeq     uint64
	PendingNet  []netDelivery
	PendingDisk []diskDelivery

	VM guest.VMSnapshot
}

// copyFrom deep-copies src into ck, reusing ck's slices.
func (ck *Checkpoint) copyFrom(src *Checkpoint) {
	ck.Instr = src.Instr
	ck.Virt = src.Virt
	ck.ClockStart = src.ClockStart
	ck.ClockSlope = src.ClockSlope
	ck.ClockEpochBase = src.ClockEpochBase
	ck.EpochsApplied = src.EpochsApplied
	ck.PITNext = src.PITNext
	ck.PITCount = src.PITCount
	ck.DiskSeq = src.DiskSeq
	ck.PendingNet = append(ck.PendingNet[:0], src.PendingNet...)
	ck.PendingDisk = append(ck.PendingDisk[:0], src.PendingDisk...)
	ck.VM.CopyFrom(&src.VM)
}

// sizeBytes estimates the checkpoint's retained size for journal telemetry.
func (ck *Checkpoint) sizeBytes() int64 {
	const netSize, diskSize = 48, 56
	return int64(len(ck.PendingNet)*netSize+len(ck.PendingDisk)*diskSize) +
		int64(ck.VM.SizeBytes()) + 96
}

// EnableCheckpoints arms periodic checkpoint capture into j every `every`
// branches. The journal must be the guest's determinism journal (the same
// one the resolve sink records into) and the app must support snapshotting;
// the cluster checks guest.VM.CanSnapshot before enabling.
func (rt *Runtime) EnableCheckpoints(j *Journal, every int64) error {
	if j == nil {
		return fmt.Errorf("%w: checkpoints need a journal", ErrVMM)
	}
	if every <= 0 || every%rt.cfg.ExitEvery != 0 {
		return fmt.Errorf("%w: checkpoint interval %d must be a positive multiple of ExitEvery %d",
			ErrVMM, every, rt.cfg.ExitEvery)
	}
	if !rt.vm.CanSnapshot() {
		return fmt.Errorf("%w: app %T is not a guest.Snapshotter", ErrVMM, rt.vm.App())
	}
	rt.journal = j
	rt.ckEvery = every
	rt.ckNext = (rt.Instr()/every + 1) * every
	rt.ex.rearm() // the first checkpoint may precede the armed exit
	return nil
}

// captureCheckpoint snapshots the replica at the current exit, offers it to
// the journal and sets the next capture point. The scratch checkpoint
// ping-pongs with the journal's retained one, so steady-state checkpointing
// allocates nothing.
func (rt *Runtime) captureCheckpoint(virt vtime.Virtual) {
	rt.ckNext = (rt.ex.instr/rt.ckEvery + 1) * rt.ckEvery
	ck := rt.ckScratch
	if ck == nil {
		ck = new(Checkpoint)
	}
	ck.Instr = rt.ex.instr
	ck.Virt = virt
	ck.ClockStart = rt.vclock.Start()
	ck.ClockSlope = rt.vclock.Slope()
	ck.ClockEpochBase = rt.vclock.EpochBase()
	ck.EpochsApplied = 0
	if rt.cfg.EpochInstr > 0 {
		ck.EpochsApplied = ck.ClockEpochBase / rt.cfg.EpochInstr
	}
	ck.PITNext = rt.pit.Next()
	ck.PITCount = rt.pit.Ticks()
	ck.DiskSeq = rt.diskSeq
	ck.PendingNet = append(ck.PendingNet[:0], rt.pendingNet...)
	ck.PendingDisk = append(ck.PendingDisk[:0], rt.pendingDisk...)
	if err := rt.vm.SnapshotInto(&ck.VM); err != nil {
		// Unreachable after the EnableCheckpoints CanSnapshot gate; disarm
		// rather than journal a torn checkpoint.
		rt.ckEvery = 0
		rt.ckScratch = ck
		return
	}
	rt.stats.Checkpoints++
	rt.ckScratch = rt.journal.OfferCheckpoint(ck)
}

// restoreCheckpoint rewinds a freshly built (un-booted) runtime to the
// checkpointed state. Pending disk interrupts are re-timed to "ready now":
// their data arrived with the state copy, only the deterministic V+Δd
// delivery points remain. A checkpoint is bytes that crossed a boundary, so
// it is vetted whole (check) before anything is applied.
func (rt *Runtime) restoreCheckpoint(ck *Checkpoint) error {
	if err := ck.check(rt.vclock); err != nil {
		return err
	}
	if err := rt.vm.RestoreSnapshot(&ck.VM); err != nil {
		return err
	}
	_ = rt.vclock.Restore(ck.ClockStart, ck.ClockSlope, ck.ClockEpochBase) // vetted by check
	rt.pit.Restore(ck.PITNext, ck.PITCount)
	rt.ex.instr = ck.Instr
	rt.virtLastExit = ck.Virt
	rt.diskSeq = ck.DiskSeq
	rt.pendingNet = append(rt.pendingNet[:0], ck.PendingNet...)
	now := rt.host.Loop().Now()
	rt.pendingDisk = rt.pendingDisk[:0]
	for _, d := range ck.PendingDisk {
		d.readyReal = now
		rt.pendingDisk = append(rt.pendingDisk, d)
	}
	return nil
}

// check refuses a checkpoint no capture could have written: a clock fit the
// clock would not take, a pending queue out of the strict (deliverVirt, seq)
// order the runtime keeps (deliverDue reads only a queue's head and
// EnqueueNetDelivery searches it as sorted, so disorder delivers late), or
// an ingress seq pending twice, which would be delivered twice.
func (ck *Checkpoint) check(clock *vtime.Clock) error {
	if err := clock.CheckRestore(ck.ClockSlope, ck.ClockEpochBase); err != nil {
		return err
	}
	seqs := make(map[uint64]bool, len(ck.PendingNet))
	for i, d := range ck.PendingNet {
		if seqs[d.seq] || i > 0 && !deliversBefore(ck.PendingNet[i-1].deliverVirt, ck.PendingNet[i-1].seq, d.deliverVirt, d.seq) {
			return fmt.Errorf("%w: checkpoint pending net seq %d repeated or out of order", ErrVMM, d.seq)
		}
		seqs[d.seq] = true
	}
	for i := 1; i < len(ck.PendingDisk); i++ {
		if a, b := ck.PendingDisk[i-1], ck.PendingDisk[i]; !deliversBefore(a.deliverVirt, a.seq, b.deliverVirt, b.seq) {
			return fmt.Errorf("%w: checkpoint pending disk seq %d out of order", ErrVMM, b.seq)
		}
	}
	return nil
}

// deliversBefore is the pending queues' strict (deliverVirt, seq) order.
func deliversBefore(av vtime.Virtual, as uint64, bv vtime.Virtual, bs uint64) bool {
	return av < bv || av == bv && as < bs
}
