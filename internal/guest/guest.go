// Package guest models a uniprocessor guest VM as StopWatch needs one: a
// deterministic, branch-counted program whose only clocks are the ones the
// VMM chooses to expose.
//
// A guest is an App (event-driven workload) plus an op queue. App callbacks
// enqueue work — compute, disk I/O, packet sends, virtual timers — and the
// hosting VMM drains the queue, counting branches. Everything the guest can
// observe (interrupt injection points, clock reads, data arrival) is a
// deterministic function of executed instruction count and the virtual
// times of injected interrupts. Replicas fed identical interrupt schedules
// therefore produce identical outputs, which Sec. VI's egress median relies
// on; the output log digest makes divergence detectable.
package guest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"

	"stopwatch/internal/netsim"
	"stopwatch/internal/vtime"
)

// ErrGuest reports invalid guest construction or use.
var ErrGuest = errors.New("guest: invalid")

// ClockView is the guest's window onto time, implemented by the hosting
// VMM. Under StopWatch all three sources derive from virtual time; under
// the baseline VMM they derive from host real time.
type ClockView interface {
	// Now returns the guest-visible clock (virtual time under StopWatch).
	Now() vtime.Virtual
	// TSC returns the guest-visible time stamp counter.
	TSC() uint64
	// PITCounter returns the guest-visible PIT countdown register.
	PITCounter() uint16
}

// Payload is an inbound network payload as the guest sees it.
type Payload struct {
	Src  netsim.Addr
	Size int
	Data any
}

// DiskDone reports a completed disk request to the guest.
type DiskDone struct {
	Tag   string
	Bytes int
	Write bool
}

// Ctx is the guest-side API available inside App callbacks. Operations are
// queued and consumed in order by the VMM's execution engine.
type Ctx interface {
	// Compute queues n branches of computation.
	Compute(n int64)
	// Send queues an outbound packet (causes a VM exit when executed).
	Send(dst netsim.Addr, size int, data any)
	// DiskRead queues an asynchronous disk read; completion arrives via
	// OnDiskDone.
	DiskRead(tag string, bytes int)
	// DiskWrite queues an asynchronous disk write; completion arrives via
	// OnDiskDone.
	DiskWrite(tag string, bytes int)
	// SetTimer requests an OnTimer callback once the guest's clock passes
	// now+d. Timer delivery is interrupt-like: it happens at a VM exit.
	SetTimer(d vtime.Virtual, tag string)
	// Clock exposes the guest-visible clocks.
	Clock() ClockView
	// ID returns the guest's identity (same across replicas).
	ID() string
}

// App is a deterministic guest workload. Callbacks run "inside" the guest:
// any instructions a handler consumes must be queued via ctx.Compute, and
// all decisions must derive from guest-visible state only.
type App interface {
	// Boot runs once when the VM starts.
	Boot(ctx Ctx)
	// OnPacket runs when a network interrupt delivers a packet.
	OnPacket(ctx Ctx, p Payload)
	// OnDiskDone runs when a disk interrupt reports completion.
	OnDiskDone(ctx Ctx, d DiskDone)
	// OnTimer runs when a timer set via SetTimer expires.
	OnTimer(ctx Ctx, tag string)
}

// Snapshotter is an optional App extension: apps that implement it can be
// checkpointed, letting the VMM truncate determinism journals and restore
// replacement replicas from the last checkpoint instead of replaying the
// guest's whole lifetime. The encoding is the app's own; it only has to be
// a deterministic function of app state (identical across replicas at
// identical instruction counts) and round-trip through RestoreSnapshot.
type Snapshotter interface {
	// SnapshotAppend appends an encoding of the app's current state to buf
	// and returns the extended slice (append-style, so callers can pool the
	// buffer across checkpoints).
	SnapshotAppend(buf []byte) []byte
	// RestoreSnapshot rebuilds the app's state from an encoding produced by
	// SnapshotAppend on a replica at the same instruction count.
	RestoreSnapshot(data []byte) error
}

// opKind enumerates queued operations.
type opKind int

const (
	opCompute opKind = iota + 1
	opSend
	opDisk
)

type op struct {
	kind     opKind
	branches int64 // opCompute: remaining branches
	// opSend:
	dst  netsim.Addr
	size int
	data any
	// opDisk:
	tag   string
	bytes int
	write bool
}

// IOAction is an I/O side effect surfaced to the VMM at a VM exit.
type IOAction struct {
	// Send fields (Dst != "" means a send).
	Dst  netsim.Addr
	Size int
	Data any
	Seq  uint64 // per-guest deterministic output sequence (sends only)
	// Disk fields (Tag != "" means a disk request).
	Tag   string
	Bytes int
	Write bool
}

// IsSend reports whether the action is an outbound packet.
func (a IOAction) IsSend() bool { return a.Dst != "" }

// StepResult reports what happened during one execution step.
type StepResult struct {
	// Executed is the number of branches consumed.
	Executed int64
	// IO is non-nil when an I/O op caused the step to end (a VM exit). It
	// points at the VM's own scratch, which the next Step that ends in I/O
	// overwrites: handle it (or copy it) before stepping again.
	IO *IOAction
	// Idle is true when the op queue was empty and the guest executed its
	// idle loop for the whole step.
	Idle bool
}

// Stats counts guest-observable events.
type Stats struct {
	Branches        int64
	IdleBranches    int64
	PacketsReceived int64
	PacketsSent     int64
	DiskRequests    int64
	DiskInterrupts  int64
	NetInterrupts   int64
	TimerInterrupts int64
	TimerCallbacks  int64
}

// pendingTimer is an armed guest timer.
type pendingTimer struct {
	due vtime.Virtual
	tag string
}

// VM is one replica's logical guest state. All replicas of a guest hold
// identical VMs fed identical interrupt schedules.
type VM struct {
	id    string
	app   App
	clock ClockView

	// ops[head:] is the op queue. Popping advances head rather than
	// reslicing, so the backing array is reused instead of reallocated every
	// few ops: head returns to 0 when the queue empties, and push compacts
	// once the consumed prefix outweighs the live window.
	ops     []op
	head    int
	timers  []pendingTimer
	due     []pendingTimer // fireDueTimers scratch
	io      IOAction       // Step's result scratch: one per VM, not one per output
	sendSeq uint64

	stats  Stats
	outLog *OutputLog

	booted bool
}

// New creates a guest VM around the app. The clock view is provided by the
// hosting VMM.
func New(id string, app App, clock ClockView) (*VM, error) {
	if id == "" || app == nil || clock == nil {
		return nil, fmt.Errorf("%w: need id, app and clock", ErrGuest)
	}
	return &VM{id: id, app: app, clock: clock, outLog: newOutputLog()}, nil
}

// ID returns the guest identity.
func (vm *VM) ID() string { return vm.id }

// App returns the hosted workload instance.
func (vm *VM) App() App { return vm.app }

// Stats returns a copy of the guest counters.
func (vm *VM) Stats() Stats { return vm.stats }

// OutputDigest returns the FNV-64 digest of the output log; identical
// across correct replicas.
func (vm *VM) OutputDigest() uint64 { return vm.outLog.Digest() }

// OutputLog exposes the output log (prefix-digest lockstep checks).
func (vm *VM) OutputLog() *OutputLog { return vm.outLog }

// OutputCount returns the number of logged outputs.
func (vm *VM) OutputCount() int { return vm.outLog.Len() }

// Boot invokes the app's Boot callback (once).
func (vm *VM) Boot() {
	if vm.booted {
		return
	}
	vm.booted = true
	vm.app.Boot(vmCtx{vm})
}

// Busy reports whether the guest has queued work (vs idle-spinning).
func (vm *VM) Busy() bool { return vm.head < len(vm.ops) }

// pop consumes the head op, dropping its payload reference.
func (vm *VM) pop() {
	vm.ops[vm.head] = op{}
	vm.head++
	if vm.head == len(vm.ops) {
		vm.ops, vm.head = vm.ops[:0], 0
	}
}

// push appends an op to the queue.
func (vm *VM) push(o op) {
	if vm.head > len(vm.ops)/2 {
		n := copy(vm.ops, vm.ops[vm.head:])
		clear(vm.ops[n:])
		vm.ops, vm.head = vm.ops[:n], 0
	}
	if vm.ops == nil {
		vm.ops = make([]op, 0, 8)
	}
	vm.ops = append(vm.ops, o)
}

// Step executes up to max branches. It returns early when an I/O op causes
// a VM exit. With an empty queue the guest spins its idle loop, consuming
// the full budget.
func (vm *VM) Step(max int64) StepResult {
	if max <= 0 {
		return StepResult{}
	}
	var executed int64
	for executed < max {
		if !vm.Busy() {
			// Idle loop: burn the remaining budget.
			idle := max - executed
			vm.stats.Branches += idle
			vm.stats.IdleBranches += idle
			return StepResult{Executed: max, Idle: true}
		}
		cur := &vm.ops[vm.head]
		switch cur.kind {
		case opCompute:
			remaining := max - executed
			if cur.branches <= remaining {
				executed += cur.branches
				vm.stats.Branches += cur.branches
				vm.pop()
			} else {
				cur.branches -= remaining
				vm.stats.Branches += remaining
				executed = max
			}
		case opSend:
			vm.sendSeq++
			vm.io = IOAction{Dst: cur.dst, Size: cur.size, Data: cur.data, Seq: vm.sendSeq}
			vm.stats.PacketsSent++
			vm.outLog.Append(vm.sendSeq, cur.dst, cur.size, cur.data)
			vm.pop()
			// The send itself costs one branch (I/O port write).
			executed++
			vm.stats.Branches++
			return StepResult{Executed: executed, IO: &vm.io}
		case opDisk:
			vm.io = IOAction{Tag: cur.tag, Bytes: cur.bytes, Write: cur.write}
			vm.stats.DiskRequests++
			vm.pop()
			executed++
			vm.stats.Branches++
			return StepResult{Executed: executed, IO: &vm.io}
		default:
			// Unreachable by construction; drop the malformed op.
			vm.pop()
		}
	}
	return StepResult{Executed: executed}
}

// BranchesToNextIO returns the compute branches queued ahead of the next
// I/O op, and whether an I/O op is queued at all. The VMM uses it to size
// execution chunks.
func (vm *VM) BranchesToNextIO() (int64, bool) {
	var n int64
	for _, o := range vm.ops[vm.head:] {
		switch o.kind {
		case opCompute:
			n += o.branches
		default:
			return n, true
		}
	}
	return n, false
}

// DeliverPacket injects a network interrupt: the data is copied in and the
// app handler runs. Must be called at a VM exit.
func (vm *VM) DeliverPacket(p Payload) {
	vm.stats.NetInterrupts++
	vm.stats.PacketsReceived++
	vm.app.OnPacket(vmCtx{vm}, p)
}

// DeliverDisk injects a disk-completion interrupt.
func (vm *VM) DeliverDisk(d DiskDone) {
	vm.stats.DiskInterrupts++
	vm.app.OnDiskDone(vmCtx{vm}, d)
}

// DeliverTimerTicks accounts PIT timer interrupts (kernel tick handling)
// and fires any app timers that are due at the guest clock.
func (vm *VM) DeliverTimerTicks(n int) {
	vm.stats.TimerInterrupts += int64(n)
	vm.fireDueTimers()
}

// fireDueTimers runs app timer callbacks due at the current guest clock.
func (vm *VM) fireDueTimers() {
	now := vm.clock.Now()
	kept := vm.timers[:0]
	due := vm.due[:0]
	for _, t := range vm.timers {
		if t.due <= now {
			if due == nil {
				due = make([]pendingTimer, 0, 4)
			}
			due = append(due, t)
		} else {
			kept = append(kept, t)
		}
	}
	vm.timers = kept
	for _, t := range due {
		vm.stats.TimerCallbacks++
		vm.app.OnTimer(vmCtx{vm}, t.tag)
	}
	vm.due = due[:0]
}

// NextTimerDue returns the earliest armed app-timer deadline, if any.
func (vm *VM) NextTimerDue() (vtime.Virtual, bool) {
	var best vtime.Virtual
	found := false
	for _, t := range vm.timers {
		if !found || t.due < best {
			best = t.due
			found = true
		}
	}
	return best, found
}

// vmCtx implements Ctx.
type vmCtx struct{ vm *VM }

var _ Ctx = vmCtx{}

func (c vmCtx) Compute(n int64) {
	if n <= 0 {
		return
	}
	// Coalesce with a trailing compute op to keep the queue small.
	if c.vm.Busy() {
		last := &c.vm.ops[len(c.vm.ops)-1]
		if last.kind == opCompute {
			last.branches += n
			return
		}
	}
	c.vm.push(op{kind: opCompute, branches: n})
}

func (c vmCtx) Send(dst netsim.Addr, size int, data any) {
	if dst == "" || size <= 0 {
		return
	}
	c.vm.push(op{kind: opSend, dst: dst, size: size, data: data})
}

func (c vmCtx) DiskRead(tag string, bytes int) {
	if bytes <= 0 {
		return
	}
	c.vm.push(op{kind: opDisk, tag: tag, bytes: bytes})
}

func (c vmCtx) DiskWrite(tag string, bytes int) {
	if bytes <= 0 {
		return
	}
	c.vm.push(op{kind: opDisk, tag: tag, bytes: bytes, write: true})
}

func (c vmCtx) SetTimer(d vtime.Virtual, tag string) {
	if d < 0 {
		d = 0
	}
	c.vm.timers = append(c.vm.timers, pendingTimer{due: c.vm.clock.Now() + d, tag: tag})
}

func (c vmCtx) Clock() ClockView { return c.vm.clock }
func (c vmCtx) ID() string       { return c.vm.id }

// digestHistory bounds how many per-output digests the log retains for
// prefix comparison. Replica skew is bounded by pacing (MaxLead), which at
// any sane send rate is far fewer than this many outputs.
const digestHistory = 512

// OutputLog records the guest's outbound packets for divergence detection.
type OutputLog struct {
	n      int
	digest uint64
	empty  uint64   // digest of the empty log (n == 0)
	hist   []uint64 // ring: hist[(i-1)%digestHistory] = digest after i outputs
	buf    []byte   // formatting scratch, reused across Appends
}

// outputLogSeed is the digest of the empty log, shared by every guest.
var outputLogSeed = func() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte("stopwatch-output-log"))
	return h.Sum64()
}()

// FNV-64a parameters, for the hand-rolled fold in Append.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newOutputLog() *OutputLog {
	// The history ring is lazily allocated on the first output.
	return &OutputLog{digest: outputLogSeed, empty: outputLogSeed}
}

// Append folds an output record into the rolling digest. The record is
// formatted into a reused scratch buffer and folded with an inline FNV-64a
// — one Append per guest output makes this a hot path, and the fmt.Fprintf
// + hasher pair it replaces allocated on every call. The byte format (and
// so the digest value) is unchanged: "%d|%d|%s|%d|%v", which a payload's
// AppendDigest method (a transport segment's) writes without reflection.
func (l *OutputLog) Append(seq uint64, dst netsim.Addr, size int, data any) {
	b := l.buf[:0]
	if b == nil {
		b = make([]byte, 0, 96) // a record with a short payload fits
	}
	b = strconv.AppendUint(b, l.digest, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, '|')
	b = append(b, dst...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, '|')
	switch v := data.(type) {
	case nil:
		b = append(b, "<nil>"...)
	case int:
		b = strconv.AppendInt(b, int64(v), 10)
	case int64:
		b = strconv.AppendInt(b, v, 10)
	case uint64:
		b = strconv.AppendUint(b, v, 10)
	case string:
		b = append(b, v...)
	case interface{ AppendDigest([]byte) []byte }:
		b = v.AppendDigest(b)
	default:
		b = fmt.Appendf(b, "%v", v)
	}
	l.buf = b[:0]
	d := uint64(fnvOffset64)
	for _, c := range b {
		d ^= uint64(c)
		d *= fnvPrime64
	}
	l.digest = d
	if l.hist == nil {
		l.hist = make([]uint64, digestHistory)
	}
	l.n++
	l.hist[(l.n-1)%digestHistory] = l.digest
}

// DigestAt returns the digest as of the first n outputs, if still within
// the retained history. It lets replicas that are transiently skewed by a
// few packets be compared on their common prefix.
func (l *OutputLog) DigestAt(n int) (uint64, bool) {
	switch {
	case n < 0 || n > l.n:
		return 0, false
	case n == 0:
		return l.empty, true
	case l.n-n >= digestHistory:
		return 0, false
	}
	return l.hist[(n-1)%digestHistory], true
}

// FirstDifference returns the first output (1-based) at which l's and o's
// digests differ, 0 if they agree on their common prefix. Digests roll, so
// a difference persists; exact is false when it is known only to lie at or
// before output n, the oldest both logs still hold.
func (l *OutputLog) FirstDifference(o *OutputLog) (n int, exact bool) {
	lo := max(1, l.n-digestHistory+1, o.n-digestHistory+1)
	for k := lo; k <= min(l.n, o.n); k++ {
		a, _ := l.DigestAt(k)
		if b, _ := o.DigestAt(k); a != b {
			return k, k > lo || k == 1
		}
	}
	return 0, true
}

// Len returns the number of records folded in.
func (l *OutputLog) Len() int { return l.n }

// Digest returns the rolling FNV-64 digest.
func (l *OutputLog) Digest() uint64 { return l.digest }

// VMSnapshot is a point-in-time copy of a VM's logical state, taken at a VM
// exit: the op queue, armed timers, output-sequence counter, stats, output
// log (count, rolling digest, retained history ring) and the app's own
// encoded state. Snapshots are value-copied structured state, not byte
// serializations — checkpointing is in-process. The zero value is ready;
// SnapshotInto reuses its slices across captures so steady-state
// checkpointing does not allocate.
type VMSnapshot struct {
	sendSeq uint64
	booted  bool
	stats   Stats
	ops     []op
	timers  []pendingTimer
	logN    int
	logDig  uint64
	logHist []uint64
	app     []byte
	valid   bool
}

// SizeBytes estimates the snapshot's retained size — the journal-bytes
// accounting unit for checkpoint telemetry.
func (s *VMSnapshot) SizeBytes() int {
	const opSize, timerSize = 64, 24
	return len(s.ops)*opSize + len(s.timers)*timerSize + len(s.logHist)*8 + len(s.app) + 64
}

// CopyFrom deep-copies src into s, reusing s's slices.
func (s *VMSnapshot) CopyFrom(src *VMSnapshot) {
	s.sendSeq = src.sendSeq
	s.booted = src.booted
	s.stats = src.stats
	s.ops = append(s.ops[:0], src.ops...)
	s.timers = append(s.timers[:0], src.timers...)
	s.logN = src.logN
	s.logDig = src.logDig
	s.logHist = append(s.logHist[:0], src.logHist...)
	s.app = append(s.app[:0], src.app...)
	s.valid = src.valid
}

// CanSnapshot reports whether the hosted app supports checkpointing.
func (vm *VM) CanSnapshot() bool {
	_, ok := vm.app.(Snapshotter)
	return ok
}

// SnapshotInto captures the VM's state into snap, reusing snap's slices.
// Must be called at a VM exit (never from inside an App callback). Fails if
// the app does not implement Snapshotter.
func (vm *VM) SnapshotInto(snap *VMSnapshot) error {
	sn, ok := vm.app.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: app %T is not a Snapshotter", ErrGuest, vm.app)
	}
	snap.sendSeq = vm.sendSeq
	snap.booted = vm.booted
	snap.stats = vm.stats
	snap.ops = append(snap.ops[:0], vm.ops[vm.head:]...)
	snap.timers = append(snap.timers[:0], vm.timers...)
	snap.logN = vm.outLog.n
	snap.logDig = vm.outLog.digest
	snap.logHist = append(snap.logHist[:0], vm.outLog.hist...)
	snap.app = sn.SnapshotAppend(snap.app[:0])
	snap.valid = true
	return nil
}

// RestoreSnapshot rebuilds the VM's state from a snapshot captured on a
// replica of the same guest. The VM must not have booted; after restore it
// is in the exact logical state the snapshotted replica was in at capture,
// and replaying the same interrupt schedule reproduces its outputs
// digest-identically.
func (vm *VM) RestoreSnapshot(snap *VMSnapshot) error {
	if !snap.valid {
		return fmt.Errorf("%w: empty snapshot", ErrGuest)
	}
	if vm.booted {
		return fmt.Errorf("%w: restore into a booted VM", ErrGuest)
	}
	sn, ok := vm.app.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: app %T is not a Snapshotter", ErrGuest, vm.app)
	}
	if err := sn.RestoreSnapshot(snap.app); err != nil {
		return fmt.Errorf("guest %s: restore app: %w", vm.id, err)
	}
	vm.sendSeq = snap.sendSeq
	vm.booted = snap.booted
	vm.stats = snap.stats
	vm.ops, vm.head = append(vm.ops[:0], snap.ops...), 0
	vm.timers = append(vm.timers[:0], snap.timers...)
	vm.outLog.n = snap.logN
	vm.outLog.digest = snap.logDig
	if len(snap.logHist) > 0 {
		if vm.outLog.hist == nil {
			vm.outLog.hist = make([]uint64, digestHistory)
		}
		copy(vm.outLog.hist, snap.logHist)
	}
	return nil
}
