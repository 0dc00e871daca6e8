package vmm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// This file implements the Sec. VII replica-replacement sketch: "the state
// of the crashed VM can be recovered from the other two replicas". Because
// a StopWatch guest is a deterministic function of (boot median, the
// median-agreed interrupt schedule), copying a survivor's state is
// equivalent to re-executing the guest against the recorded schedule. The
// cluster keeps that schedule in a Journal; NewReplacementRuntime replays
// it synchronously (state transfer takes no guest-visible time — it is the
// control plane's copy, not guest execution) and hands back a Runtime that
// is instruction-for-instruction level with the chosen survivor.

// JournalRecord is one resolved network delivery: the median-agreed virtual
// delivery time for an ingress sequence number, identical at every replica.
type JournalRecord struct {
	Seq     uint64
	Deliver vtime.Virtual
	Payload guest.Payload
}

// Journal is a guest's determinism log: every resolved network-interrupt
// delivery since the last checkpoint, the per-epoch median samples (stars)
// applied by epoch re-sync, and the latest checkpoint. Replicas resolve
// identical medians and capture identical checkpoints at identical
// instruction counts, so the journal is replica-independent; the cluster
// records it once per guest and replica replacement replays it. Disk and
// timer interrupts need no journal — their delivery times are pure
// functions of the instruction stream (V+Δd and the virtual PIT).
//
// The mutex exists for the sharded simulation: a guest's replicas live on
// different shard loops and resolve within the same lookahead window, so
// their first-write-wins Records race in wall-clock order. The recorded
// content is identical either way (that is the determinism the journal
// logs), so the lock only makes the map access safe, not the outcome.
type Journal struct {
	mu sync.Mutex
	// recs stays a map where the other per-sequence tables became a
	// seqwin.Window: a checkpoint truncates it by delivery time, which is no
	// prefix of the sequences, and records arrive out of order from the
	// replicas' shard loops under mu.
	recs  map[uint64]JournalRecord
	stars map[int64]vtime.EpochSample

	// ck is the latest accepted checkpoint; truncVirt fences stragglers —
	// a Record whose delivery the checkpoint already covers is dropped.
	ck        *Checkpoint
	truncVirt vtime.Virtual

	// Cumulative accounting (survives truncation).
	checkpoints    int
	truncatedRecs  int
	truncatedBytes int64
}

// JournalStats is a journal's telemetry snapshot.
type JournalStats struct {
	// Records is the retained (post-truncation) delivery-record count.
	Records int
	// Bytes estimates the retained size: records plus the checkpoint.
	Bytes int64
	// Stars is the retained epoch-star count.
	Stars int
	// Checkpoints is the cumulative accepted-checkpoint count.
	Checkpoints int
	// CheckpointInstr/CheckpointVirt locate the latest checkpoint (0 when
	// none has been captured).
	CheckpointInstr int64
	CheckpointVirt  vtime.Virtual
	// TruncatedRecords/TruncatedBytes count what checkpointing has dropped.
	TruncatedRecords int
	TruncatedBytes   int64
}

// journalRecBytes estimates one delivery record's retained size.
func journalRecBytes(r JournalRecord) int64 { return 56 + int64(r.Payload.Size) }

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{} // recs is lazily initialized on the first Record
}

// OnResolve implements ResolveSink: the journal wires directly into a
// NetDevice with no adapter allocation.
func (j *Journal) OnResolve(seq uint64, deliver vtime.Virtual, p guest.Payload) {
	j.Record(seq, deliver, p)
}

// Record stores a resolution. Replicas record identical values for a seq;
// the first write wins and later duplicates are ignored, as is a straggler
// whose delivery the latest checkpoint already covers.
func (j *Journal) Record(seq uint64, deliver vtime.Virtual, p guest.Payload) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ck != nil && deliver <= j.truncVirt {
		return
	}
	if _, dup := j.recs[seq]; dup {
		return
	}
	if j.recs == nil {
		j.recs = make(map[uint64]JournalRecord)
	}
	j.recs[seq] = JournalRecord{Seq: seq, Deliver: deliver, Payload: p}
}

// Decision returns the journaled delivery time for seq, if one is retained.
func (j *Journal) Decision(seq uint64) (vtime.Virtual, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.recs[seq]
	return r.Deliver, ok
}

// RecordEpochStar stores the (D*, R*) median sample an epoch adjustment
// selected — identical on every replica — so replacement replay can re-fit
// the virtual clock's slope at the same boundary deterministically. First
// write wins, like delivery records.
func (j *Journal) RecordEpochStar(epoch int64, star vtime.EpochSample) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.stars[epoch]; dup {
		return
	}
	if j.ck != nil && epoch < j.ck.EpochsApplied {
		return // the checkpoint's clock already folds this epoch in
	}
	if j.stars == nil {
		j.stars = make(map[int64]vtime.EpochSample)
	}
	j.stars[epoch] = star
}

// EpochStar returns the journaled star for an epoch, if recorded.
func (j *Journal) EpochStar(epoch int64) (vtime.EpochSample, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s, ok := j.stars[epoch]
	return s, ok
}

// OfferCheckpoint installs ck as the journal's checkpoint if it is newer
// than the current one, truncating every delivery record and epoch star the
// checkpoint covers. It returns a checkpoint object the caller should keep
// as capture scratch (the previously retained checkpoint, or ck itself when
// rejected as a duplicate) — the ping-pong that makes steady-state
// checkpointing allocation-free. The returned value may be nil on the first
// accepted offer.
func (j *Journal) OfferCheckpoint(ck *Checkpoint) *Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ck != nil && j.ck.Instr >= ck.Instr {
		return ck // duplicate from a peer replica, or stale
	}
	old := j.ck
	j.ck = ck
	j.truncVirt = ck.Virt
	j.checkpoints++
	for seq, r := range j.recs {
		if r.Deliver <= ck.Virt {
			delete(j.recs, seq)
			j.truncatedRecs++
			j.truncatedBytes += journalRecBytes(r)
		}
	}
	for e := range j.stars {
		if e < ck.EpochsApplied {
			delete(j.stars, e)
		}
	}
	return old
}

// CopyCheckpoint copies the latest checkpoint into dst (reusing dst's
// slices) and reports whether one exists.
func (j *Journal) CopyCheckpoint(dst *Checkpoint) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ck == nil {
		return false
	}
	dst.copyFrom(j.ck)
	return true
}

// Stats returns the journal's telemetry snapshot.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JournalStats{
		Records:          len(j.recs),
		Stars:            len(j.stars),
		Checkpoints:      j.checkpoints,
		TruncatedRecords: j.truncatedRecs,
		TruncatedBytes:   j.truncatedBytes,
	}
	for _, r := range j.recs {
		s.Bytes += journalRecBytes(r)
	}
	if j.ck != nil {
		s.CheckpointInstr = j.ck.Instr
		s.CheckpointVirt = j.ck.Virt
		s.Bytes += j.ck.sizeBytes()
	}
	return s
}

// Sorted returns the records in delivery order (Deliver, then Seq) — the
// order the runtime's pending queue maintains.
func (j *Journal) Sorted() []JournalRecord {
	j.mu.Lock()
	out := make([]JournalRecord, 0, len(j.recs))
	for _, r := range j.recs {
		out = append(out, r)
	}
	j.mu.Unlock()
	slices.SortFunc(out, func(a, b JournalRecord) int {
		return cmp.Or(cmp.Compare(a.Deliver, b.Deliver), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// NewReplacementRuntime reconstructs a replica on `host` by restoring the
// journal's latest checkpoint (when one exists) and replaying the journal
// suffix up to targetInstr — a surviving replica's current instruction
// count. The returned runtime holds the same virtual clock, PIT, op-queue,
// app state, output digest and pending interrupt queues the survivor holds
// at that instruction count, and has not been started: the caller wires
// OnSend/OnPace/SendProposal and calls Start, after which the replica
// executes live and in lockstep.
//
// Replayed guest outputs are suppressed — the survivors already tunnelled
// those packets and the egress has forwarded them. Replayed disk requests
// do not touch the new host's disk model (the data arrives with the state
// copy); their interrupts still fire at the deterministic V+Δd points.
//
// With epoch re-sync enabled (EpochInstr > 0), each boundary crossed during
// replay re-fits the clock from the journaled (D*, R*) star exactly as the
// survivors did live. A boundary whose star is not yet journaled is one the
// survivors are still paused at; replay stops there and the cluster joins
// the fresh replica to the barrier (EpochCoordinator.RestoreAt).
//
// When the dead replica checkpointed ahead of every survivor (it led the
// pace window across a checkpoint boundary before freezing), the checkpoint
// state is already past targetInstr; the replica is restored to the
// checkpoint and simply starts ahead — a legal paced state the survivors
// catch up to.
//
// Precondition (returned as an error): the journal must hold every delivery
// the survivors resolved since its checkpoint (quiesce the ingress first),
// and bootTimes must be the guest's original boot median inputs.
func NewReplacementRuntime(host *Host, guestID string, app guest.App, bootTimes []sim.Time, j *Journal, targetInstr int64) (*Runtime, error) {
	if j == nil {
		return nil, fmt.Errorf("%w: replacement needs a journal", ErrVMM)
	}
	if targetInstr < 0 {
		return nil, fmt.Errorf("%w: target instruction count %d", ErrVMM, targetInstr)
	}
	rt, err := NewRuntime(host, guestID, app, bootTimes)
	if err != nil {
		return nil, err
	}
	rt.replaying = true
	fail := func(err error) (*Runtime, error) {
		rt.Release()
		return nil, err
	}
	var ck Checkpoint
	restored := j.CopyCheckpoint(&ck)
	if restored {
		if err := rt.restoreCheckpoint(&ck); err != nil {
			return fail(fmt.Errorf("%w: restore checkpoint at instr %d: %v", ErrVMM, ck.Instr, err))
		}
		rt.stats.RestoredInstr = ck.Instr
		if ck.Instr > targetInstr {
			targetInstr = ck.Instr
		}
	} else {
		rt.vm.Boot()
	}
	// Preload the resolved schedule the checkpoint does not cover:
	// deliveries due during the replay fire at their deterministic exits,
	// the rest stay pending exactly as they are pending at the survivors.
	// Records still pending at the checkpoint were restored with it, so a
	// suffix record is skipped when the checkpoint holds its seq.
	for _, rec := range j.Sorted() {
		if restored && (rec.Deliver <= ck.Virt || slices.ContainsFunc(ck.PendingNet, func(d netDelivery) bool { return d.seq == rec.Seq })) {
			continue
		}
		rt.pendingNet = append(rt.pendingNet, netDelivery{rec.Deliver, rec.Seq, rec.Payload})
	}
	slices.SortFunc(rt.pendingNet, func(a, b netDelivery) int {
		return cmp.Or(cmp.Compare(a.deliverVirt, b.deliverVirt), cmp.Compare(a.seq, b.seq))
	})
	rt.stats.ReplayedRecords = len(rt.pendingNet)
	// applyStars re-fits the clock at every epoch boundary replay has
	// crossed whose star is journaled — the same first-exit-at-or-past-the-
	// boundary points live execution adjusted at.
	applyStars := func() error {
		epochInstr := rt.cfg.EpochInstr
		if epochInstr <= 0 {
			return nil
		}
		for {
			epoch := rt.vclock.EpochBase() / epochInstr
			if rt.ex.instr < (epoch+1)*epochInstr {
				return nil
			}
			star, ok := j.EpochStar(epoch)
			if !ok {
				if rt.ex.instr < targetInstr {
					return fmt.Errorf("%w: journal missing epoch %d star at instr %d (target %d)",
						ErrVMM, epoch, rt.ex.instr, targetInstr)
				}
				return nil // survivors are paused at this barrier; join it after wiring
			}
			if _, err := rt.vclock.AdjustEpoch(epochInstr, []vtime.EpochSample{star}); err != nil {
				return err
			}
		}
	}
	if err := applyStars(); err != nil {
		return fail(err)
	}
	// A step runs at least one branch and at most budget: replay ends at target.
	for rt.ex.instr < targetInstr {
		budget := rt.ex.budget()
		partial := false
		if rem := targetInstr - rt.ex.instr; rem < budget {
			// The survivor materialized partial chunk progress (a pacing
			// pause or contention rescale); mirror the cut.
			budget, partial = rem, true
		}
		res := rt.vm.Step(budget)
		rt.ex.instr += res.Executed
		if res.IO == nil && partial {
			continue // mid-chunk materialization: not an exit
		}
		rt.exit(res)
		if err := applyStars(); err != nil {
			return fail(err)
		}
	}
	rt.replaying = false
	return rt, nil
}
