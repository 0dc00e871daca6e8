package apps

import (
	"encoding/binary"
	"fmt"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
)

// ParsecProfile is a calibrated compute/disk profile standing in for one
// PARSEC application (Sec. VII-D). The profile runs as a serial chain of
// compute bursts separated by synchronous disk reads — the structure that
// makes StopWatch's per-disk-interrupt Δd cost visible, which is exactly
// the correlation Fig. 7(b) reports.
type ParsecProfile struct {
	Name string
	// ComputeBranches is the total computation, spread evenly across the
	// chain (1e6 branches ≈ 1 ms at the default rate).
	ComputeBranches int64
	// DiskReads is the number of synchronous disk reads (the paper's disk
	// interrupt counts: Fig. 7(b)).
	DiskReads int
	// BytesPerRead is the size of each read.
	BytesPerRead int
	// BaselinePaperMS / StopWatchPaperMS record the paper's measured
	// runtimes (Fig. 7(a)) for reporting alongside ours.
	BaselinePaperMS, StopWatchPaperMS float64
}

// PaperParsecProfiles returns the five applications used in the paper,
// calibrated so the baseline runtimes land in the paper's regime with the
// Fig-7 experiment configuration (disk service ≈ 1.7 ms mean):
// compute = baseline_ms − reads·1.7ms.
func PaperParsecProfiles() []ParsecProfile {
	return []ParsecProfile{
		{Name: "ferret", ComputeBranches: 118_300_000, DiskReads: 31, BytesPerRead: 16 << 10, BaselinePaperMS: 171, StopWatchPaperMS: 350},
		{Name: "blackscholes", ComputeBranches: 112_400_000, DiskReads: 38, BytesPerRead: 16 << 10, BaselinePaperMS: 177, StopWatchPaperMS: 401},
		{Name: "canneal", ComputeBranches: 1_218_900_000, DiskReads: 183, BytesPerRead: 16 << 10, BaselinePaperMS: 1530, StopWatchPaperMS: 3230},
		{Name: "dedup", ComputeBranches: 3_231_900_000, DiskReads: 293, BytesPerRead: 16 << 10, BaselinePaperMS: 3730, StopWatchPaperMS: 5754},
		{Name: "streamcluster", ComputeBranches: 244_100_000, DiskReads: 27, BytesPerRead: 16 << 10, BaselinePaperMS: 290, StopWatchPaperMS: 382},
	}
}

// ParsecApp runs a profile to completion and reports "done" to a collector
// address; the harness measures wall time from start to the collector's
// receipt of that packet (via the egress median under StopWatch).
type ParsecApp struct {
	profile   ParsecProfile
	collector netsim.Addr

	step      int
	chunk     int64
	stepsLeft int
	doneSent  bool
}

var _ guest.App = (*ParsecApp)(nil)

// NewParsecApp builds a profile runner reporting to collector.
func NewParsecApp(p ParsecProfile, collector netsim.Addr) (*ParsecApp, error) {
	if p.DiskReads <= 0 || p.ComputeBranches < 0 || p.BytesPerRead <= 0 {
		return nil, fmt.Errorf("%w: parsec profile %+v", ErrApp, p)
	}
	if collector == "" {
		return nil, fmt.Errorf("%w: parsec needs a collector", ErrApp)
	}
	return &ParsecApp{
		profile:   p,
		collector: collector,
		chunk:     p.ComputeBranches / int64(p.DiskReads+1),
		stepsLeft: p.DiskReads,
	}, nil
}

// Boot implements guest.App: start the chain.
func (a *ParsecApp) Boot(ctx guest.Ctx) {
	ctx.Compute(a.chunk)
	a.next(ctx)
}

func (a *ParsecApp) next(ctx guest.Ctx) {
	if a.stepsLeft > 0 {
		a.stepsLeft--
		a.step++
		ctx.DiskRead(fmt.Sprintf("parsec:%d", a.step), a.profile.BytesPerRead)
		return
	}
	if !a.doneSent {
		a.doneSent = true
		ctx.Send(a.collector, 64, "done:"+a.profile.Name)
	}
}

// OnPacket implements guest.App (unused).
func (a *ParsecApp) OnPacket(ctx guest.Ctx, p guest.Payload) {}

// OnDiskDone implements guest.App: continue the chain.
func (a *ParsecApp) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {
	ctx.Compute(a.chunk)
	a.next(ctx)
}

// OnTimer implements guest.App (unused).
func (a *ParsecApp) OnTimer(ctx guest.Ctx, tag string) {}

// Done reports whether the workload finished.
func (a *ParsecApp) Done() bool { return a.doneSent }

// SnapshotAppend implements guest.Snapshotter: the chain position is the
// whole mutable state (profile, collector and chunk size are rebuilt by
// the factory), so a checkpoint is three integers — the cheapest possible
// replacement for the longest-running guests in the repo.
func (a *ParsecApp) SnapshotAppend(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(a.step))
	buf = binary.AppendVarint(buf, int64(a.stepsLeft))
	done := uint64(0)
	if a.doneSent {
		done = 1
	}
	return binary.AppendUvarint(buf, done)
}

// RestoreSnapshot implements guest.Snapshotter.
func (a *ParsecApp) RestoreSnapshot(data []byte) error {
	r := guest.NewSnapshotReader(data, ErrApp, "parsec snapshot")
	step := r.Varint("step")
	stepsLeft := r.Varint("stepsLeft")
	if stepsLeft < 0 {
		r.Fail("stepsLeft")
	}
	done := r.Flag("done flag")
	if err := r.End(); err != nil {
		return err
	}
	a.step = int(step)
	a.stepsLeft = int(stepsLeft)
	a.doneSent = done
	return nil
}

var _ guest.Snapshotter = (*ParsecApp)(nil)
