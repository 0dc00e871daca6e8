package apps

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
	"stopwatch/internal/vtime"
)

// FuzzRestoreSnapshot feeds arbitrary bytes to every app's RestoreSnapshot.
// A snapshot reaches a replacement replica inside a checkpoint shipped from
// another machine, so corrupt bytes must be answered with an error, never a
// panic. And whatever a restore accepts must be a state the app can hand on:
// its own snapshot restores into a fresh instance and re-serializes
// byte-identically, the equality replica lockstep rests on. Seeds are each
// app's snapshot at boot and mid-run.
func FuzzRestoreSnapshot(f *testing.F) {
	udp := DefaultFileServerConfig()
	udp.Mode = ModeUDP
	prof := ParsecProfile{Name: "t", ComputeBranches: 50_000_000, DiskReads: 6, BytesPerRead: 4096}
	apps := []struct {
		name string
		mk   func() (guest.Snapshotter, error)
	}{
		{"file server (tcp)", func() (guest.Snapshotter, error) { return NewFileServer(DefaultFileServerConfig()) }},
		{"file server (udp)", func() (guest.Snapshotter, error) { return NewFileServer(udp) }},
		{"nfs server", func() (guest.Snapshotter, error) { return NewNFSServer(16) }},
		{"disk server (the codec both embed, bare)", func() (guest.Snapshotter, error) {
			s := newDiskServer("bare", transport.NewUDPServer(), 0)
			return &s, nil
		}},
		{"parsec", func() (guest.Snapshotter, error) { return NewParsecApp(prof, "collector") }},
		{"beacon", func() (guest.Snapshotter, error) { return NewBeaconApp(vtime.Virtual(3 * sim.Millisecond)), nil }},
	}
	fresh := func(t testing.TB, i int) guest.Snapshotter {
		app, err := apps[i].mk()
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	for i := range apps {
		// 20 ms in, the self-driving apps (parsec's chain, the beacon's burst
		// counter) have moved; the servers wait for a client, and get their
		// mid-run seeds below.
		app := fresh(f, i)
		f.Add(app.SnapshotAppend(nil))
		if err := newBaselineHarness(f, app.(guest.App)).loop.RunUntil(20 * sim.Millisecond); err != nil {
			f.Fatal(err)
		}
		f.Add(app.SnapshotAppend(nil))
	}
	f.Add(midDownloadServer(f).SnapshotAppend(nil))
	f.Add(midOpNFSServer(f).SnapshotAppend(nil))
	// Stream states no Respond could have left, which restore refuses:
	// every field nonsense, acked past sent, and a conn that is not its key.
	f.Add(tcpRespSnapshot(3, 3, -5, -100, 1<<40, -1<<40))
	f.Add(tcpRespSnapshot(3, 3, 7, 10_000, 2, 5))
	f.Add(tcpRespSnapshot(3, 4, 7, 10_000, 5, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, a := range apps {
			app := fresh(t, i)
			if app.RestoreSnapshot(data) != nil {
				continue
			}
			snap := app.SnapshotAppend(nil)
			again := fresh(t, i)
			if err := again.RestoreSnapshot(snap); err != nil {
				t.Fatalf("%s accepted %x but rejects its own snapshot %x: %v", a.name, data, snap, err)
			}
			if resnap := again.SnapshotAppend(nil); !bytes.Equal(resnap, snap) {
				t.Fatalf("%s: snapshot %x re-serializes as %x", a.name, snap, resnap)
			}
		}
	})
}

// tcpRespSnapshot is a disk server's snapshot, no request parked, whose
// stream stack holds connection id with one response in flight.
func tcpRespSnapshot(id, conn uint64, total, bytes, nextSend, acked int64) []byte {
	b := binary.AppendUvarint([]byte{0, 0, 1}, id) // served, parked, conns
	b = append(b, 1, 'c', 1)                       // peer "c", a response
	b = binary.AppendUvarint(binary.AppendUvarint(b, 9), conn)
	for _, v := range []int64{total, bytes, nextSend, acked} {
		b = binary.AppendVarint(b, v)
	}
	return b
}
