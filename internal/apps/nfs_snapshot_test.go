package apps

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
)

// midOpNFSServer drives an NFS server into a mid-operation state (some ops
// answered, at least one waiting on disk, the name-cache counter advanced)
// and returns it.
func midOpNFSServer(t testing.TB) *NFSServer {
	t.Helper()
	srv, err := NewNFSServer(16)
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, srv)
	conn := h.client.Connect("svc:g", nil)
	for _, op := range []NFSOp{OpLookup, OpGetattr, OpRead, OpWrite, OpCreate} {
		if err := h.client.Request(conn, NFSRequest{Op: op, Bytes: 8192}, func(transport.Response) {}); err != nil {
			t.Fatal(err)
		}
	}
	// Long enough for requests to arrive and issue their disk I/O, short
	// enough that the disk queue has not drained.
	if err := h.loop.RunUntil(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(srv.pending) == 0 {
		t.Fatal("harness did not leave an op waiting on disk; lower RunUntil")
	}
	return srv
}

func TestNFSServerSnapshotRoundTrip(t *testing.T) {
	srv := midOpNFSServer(t)
	snap := srv.SnapshotAppend(nil)

	restored, err := NewNFSServer(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if restored.lookups != srv.lookups {
		t.Fatalf("lookups %d, want %d", restored.lookups, srv.lookups)
	}
	// Behind the lookup counter the bytes are diskServer's, and it reads
	// them with no NFS server around it.
	rest := snap[len(binary.AppendVarint(nil, srv.lookups)):]
	sameDiskServer(t, &restored.diskServer, &srv.diskServer, rest)
	sameDiskServer(t, restoredBare(t, "nfs", rest), &srv.diskServer, rest)
	if again := restored.SnapshotAppend(nil); !bytes.Equal(again, snap) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(again), len(snap))
	}
}

func TestNFSServerSnapshotRejectsCorrupt(t *testing.T) {
	srv := midOpNFSServer(t)
	snap := srv.SnapshotAppend(nil)
	restored, err := NewNFSServer(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(snap) / 2, len(snap) - 1} {
		if err := restored.RestoreSnapshot(snap[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := restored.RestoreSnapshot(append(append([]byte{}, snap...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// served and lookups, then the pending count; those and an empty
	// pending table, then the TCP server's own count.
	rejectsOversizedCount(t, "pending count", 2, restored.RestoreSnapshot)
	rejectsOversizedCount(t, "tcp conn count", 3, restored.RestoreSnapshot)
}

// TestParsecSnapshotRoundTrip checkpoints the compute/disk chain mid-run
// and proves a replacement picks it up exactly where it stopped: same
// position, and the remaining disk reads complete the workload.
func TestParsecSnapshotRoundTrip(t *testing.T) {
	prof := ParsecProfile{Name: "t", ComputeBranches: 50_000_000, DiskReads: 6, BytesPerRead: 4096}
	app, err := NewParsecApp(prof, "collector")
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, app)
	if err := h.loop.RunUntil(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if app.stepsLeft == 0 || app.step == 0 {
		t.Fatalf("chain not mid-run: step=%d stepsLeft=%d; adjust RunUntil", app.step, app.stepsLeft)
	}
	snap := app.SnapshotAppend(nil)

	restored, err := NewParsecApp(prof, "collector")
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if restored.step != app.step || restored.stepsLeft != app.stepsLeft || restored.doneSent != app.doneSent {
		t.Fatalf("restored chain position %d/%d/%v, want %d/%d/%v",
			restored.step, restored.stepsLeft, restored.doneSent, app.step, app.stepsLeft, app.doneSent)
	}
	if again := restored.SnapshotAppend(nil); !bytes.Equal(again, snap) {
		t.Fatal("re-snapshot differs")
	}
	// The replacement finishes the chain from the checkpointed position:
	// exactly stepsLeft more reads, then the done report.
	h2 := newBaselineHarness(t, restored)
	before := app.stepsLeft
	if err := h2.loop.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !restored.Done() {
		t.Fatal("restored chain never finished")
	}
	if ints := h2.rt.VM().Stats().DiskInterrupts; ints != int64(before) {
		t.Fatalf("disk interrupts after restore = %d, want the %d remaining steps", ints, before)
	}
}

func TestParsecSnapshotRejectsCorrupt(t *testing.T) {
	app, err := NewParsecApp(ParsecProfile{Name: "t", ComputeBranches: 1_000_000, DiskReads: 2, BytesPerRead: 512}, "c")
	if err != nil {
		t.Fatal(err)
	}
	snap := app.SnapshotAppend(nil)
	for _, cut := range []int{0, 1, len(snap) - 1} {
		if err := app.RestoreSnapshot(snap[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := app.RestoreSnapshot(append(append([]byte{}, snap...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestNFSServerAnswersForeignRemaining: a snapshot is bytes from another
// machine, and the shared codec carries a disk-operation count the NFS server
// never raises above one. Whatever count arrives, an op is answered when its
// one disk operation completes.
func TestNFSServerAnswersForeignRemaining(t *testing.T) {
	srv, err := NewNFSServer(16)
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, srv)
	answered := false
	conn := h.client.Connect("svc:g", nil)
	if err := h.client.Request(conn, NFSRequest{Op: OpRead, Bytes: 8192}, func(transport.Response) { answered = true }); err != nil {
		t.Fatal(err)
	}
	for at := sim.Millisecond; len(srv.pending) == 0; at += sim.Millisecond {
		if err := h.loop.RunUntil(at); err != nil || at > sim.Second {
			t.Fatalf("the read never reached the disk (%v)", err)
		}
	}
	for _, p := range srv.pending {
		p.remaining = 7
	}
	if err := h.loop.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !answered || len(srv.pending) != 0 {
		t.Fatalf("answered=%v with %d ops still parked", answered, len(srv.pending))
	}
}
