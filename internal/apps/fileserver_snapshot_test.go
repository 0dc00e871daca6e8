package apps

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
)

// rejectsOversizedCount feeds restore a snapshot whose first `zeros` fields
// are zero and whose next field — an element count — claims 1<<24 entries
// with no bytes behind it. The decoder must reject it without sizing
// anything from the count: before the shared cursor's Count check this
// input made FileServer.RestoreSnapshot allocate 577 MB.
func rejectsOversizedCount(t *testing.T, what string, zeros int, restore func([]byte) error) {
	t.Helper()
	input := binary.AppendUvarint(make([]byte, zeros), 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := restore(input)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%s of 1<<24 with no elements behind it accepted", what)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting an oversized %s allocated %d bytes", what, got)
	}
}

// sameDiskServer fails unless got, restored from snap, holds what want held
// when it wrote snap, and writes snap again: the byte equality is what
// replica lockstep rests on.
func sameDiskServer(t *testing.T, got, want *diskServer, snap []byte) {
	t.Helper()
	if got.served != want.served {
		t.Fatalf("served %d, want %d", got.served, want.served)
	}
	if len(got.pending) != len(want.pending) {
		t.Fatalf("pending %d, want %d", len(got.pending), len(want.pending))
	}
	for tag, w := range want.pending {
		if g, ok := got.pending[tag]; !ok || *g != *w {
			t.Fatalf("pending %s = %+v, want %+v", tag, g, w)
		}
	}
	if again := got.SnapshotAppend(nil); !bytes.Equal(again, snap) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(again), len(snap))
	}
}

// restoredBare restores snap into the server FileServer and NFSServer embed,
// on a stream stack and with no app around it.
func restoredBare(t *testing.T, kind string, snap []byte) *diskServer {
	t.Helper()
	tcp, err := transport.NewTCPServer(16)
	if err != nil {
		t.Fatal(err)
	}
	s := newDiskServer(kind, tcp, 0)
	if err := s.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return &s
}

// midDownloadServer drives a TCP file server into a mid-response state
// (request parsed, disk reads outstanding) and returns it.
func midDownloadServer(t testing.TB) *FileServer {
	t.Helper()
	fs, err := NewFileServer(DefaultFileServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, fs)
	dl := NewDownloader(h.client)
	// 512KB = 8 sequential chunks: stopping the loop early leaves the
	// response mid-disk-phase.
	if err := dl.Fetch("svc:g", ModeTCP, 512<<10, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(40 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fs.pending) == 0 {
		t.Fatal("harness did not leave a disk read outstanding; lower RunUntil")
	}
	return fs
}

func TestFileServerSnapshotRoundTrip(t *testing.T) {
	fs := midDownloadServer(t)
	snap := fs.SnapshotAppend(nil)

	restored, err := NewFileServer(DefaultFileServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	sameDiskServer(t, &restored.diskServer, &fs.diskServer, snap)
	// The codec is diskServer's: with no file server around it, it reads the
	// same bytes into the same state.
	sameDiskServer(t, restoredBare(t, "file", snap), &fs.diskServer, snap)
}

// TestFileServerSnapshotUDP: a UDP file server's snapshot round-trips after
// 1 download and after 20, and is as long after 20 as after 1. Only the
// served counter moves, and it is one byte either way: the datagram stack
// keeps nothing per download.
func TestFileServerSnapshotUDP(t *testing.T) {
	cfg := DefaultFileServerConfig()
	cfg.Mode = ModeUDP
	var sizes []int
	for _, downloads := range []int{1, 20} {
		fs, err := NewFileServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := newBaselineHarness(t, fs)
		dl := NewDownloader(h.client)
		done := 0
		for range downloads {
			if err := dl.Fetch("svc:g", ModeUDP, 100<<10, func(sim.Time) { done++ }); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.loop.RunUntil(30 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if done != downloads {
			t.Fatalf("%d of %d UDP fetches completed", done, downloads)
		}
		snap := fs.SnapshotAppend(nil)
		sizes = append(sizes, len(snap))
		restored, err := NewFileServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if restored.Served() != uint64(downloads) {
			t.Fatalf("served %d, want %d", restored.Served(), downloads)
		}
		if again := restored.SnapshotAppend(nil); !bytes.Equal(again, snap) {
			t.Fatal("re-snapshot differs")
		}
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("snapshot after 1 download %d bytes, after 20 %d: the server keeps state per download", sizes[0], sizes[1])
	}
}

func TestFileServerSnapshotRejectsCorrupt(t *testing.T) {
	fs := midDownloadServer(t)
	snap := fs.SnapshotAppend(nil)
	restored, err := NewFileServer(DefaultFileServerConfig())
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
	// served, then the pending count; served and an empty pending table,
	// then the stream server's own count.
	rejectsOversizedCount(t, "pending count", 1, restored.RestoreSnapshot)
	rejectsOversizedCount(t, "tcp conn count", 2, restored.RestoreSnapshot)
	// The datagram stack reads nothing, so a byte after the pending table is
	// a trailing byte.
	bare := newDiskServer("bare", transport.NewUDPServer(), 0)
	rejectsOversizedCount(t, "pending count", 1, bare.RestoreSnapshot)
	if err := bare.RestoreSnapshot([]byte{0, 0, 0}); err == nil {
		t.Fatal("a byte after a datagram server's state accepted")
	}
}
