// Package apps contains the guest workloads of the paper's evaluation:
// the web/file server of Fig. 5, the NFS server and nhfsstone-style load
// generator of Fig. 6, PARSEC-like compute profiles for Fig. 7, and the
// attacker probe / victim workloads behind Fig. 4.
package apps

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
	"stopwatch/internal/vtime"
)

// ErrApp reports invalid app configuration.
var ErrApp = errors.New("apps: invalid")

// GetFile asks a file server for a blob of the given size. Name selects
// the file (for tracing); Bytes its size.
type GetFile struct {
	Name  string
	Bytes int
}

// FileServerMode selects the transport of a FileServer.
type FileServerMode int

// FileServer transports.
const (
	ModeTCP FileServerMode = iota + 1
	ModeUDP
)

// FileServerConfig parameterizes a FileServer guest.
type FileServerConfig struct {
	Mode FileServerMode
	// Window is the TCP window in segments (ignored for UDP).
	Window int
	// RTO enables TCP server retransmission (guest virtual time; 0 = off).
	RTO vtime.Virtual
	// DiskChunk is the bytes fetched per disk read when serving cold files
	// (the paper's downloads were from a cold start).
	DiskChunk int
	// RequestCompute is the branch cost of parsing a request.
	RequestCompute int64
}

// DefaultFileServerConfig mirrors the paper's Apache setup: TCP, cold
// reads, 64KB readahead.
func DefaultFileServerConfig() FileServerConfig {
	return FileServerConfig{
		Mode:           ModeTCP,
		Window:         16,
		DiskChunk:      64 << 10,
		RequestCompute: 50_000,
	}
}

// FileServer is the guest app behind Figs. 4 and 5: it serves GetFile
// requests from disk over TCP or UDP.
type FileServer struct {
	cfg FileServerConfig
	tcp *transport.TCPServer
	udp *transport.UDPServer

	// pending tracks disk reads still outstanding per response, by the tag
	// of its disk requests.
	pending map[string]*pendingFile

	served uint64
}

type pendingFile struct {
	src       netsim.Addr
	conn      uint64
	respID    uint64
	bytes     int
	nextOff   int // next file offset to read
	remaining int // chunks still to read
}

// tag names the response's disk requests. Response ids are client-chosen,
// like connection ids, and mean something only together with the client.
func (pf *pendingFile) tag() string { return fmt.Sprintf("file:%d:%s", pf.respID, pf.src) }

// byRequest orders pending responses by (respID, src): the order snapshots
// are written in, which for a single client is the respID order it always was.
func (pf *pendingFile) byRequest(o *pendingFile) int {
	return cmp.Or(cmp.Compare(pf.respID, o.respID), cmp.Compare(pf.src, o.src))
}

var _ guest.App = (*FileServer)(nil)

// NewFileServer builds the app.
func NewFileServer(cfg FileServerConfig) (*FileServer, error) {
	if cfg.Mode != ModeTCP && cfg.Mode != ModeUDP {
		return nil, fmt.Errorf("%w: file server mode %d", ErrApp, cfg.Mode)
	}
	if cfg.DiskChunk <= 0 {
		return nil, fmt.Errorf("%w: disk chunk %d", ErrApp, cfg.DiskChunk)
	}
	fs := &FileServer{cfg: cfg, pending: make(map[string]*pendingFile)}
	switch cfg.Mode {
	case ModeTCP:
		srv, err := transport.NewTCPServer(cfg.Window)
		if err != nil {
			return nil, err
		}
		srv.RTO = cfg.RTO
		srv.OnRequest = fs.onRequest
		fs.tcp = srv
	case ModeUDP:
		srv := transport.NewUDPServer()
		srv.OnRequest = fs.onRequest
		fs.udp = srv
	}
	return fs, nil
}

// Served reports completed requests (disk phase finished).
func (fs *FileServer) Served() uint64 { return fs.served }

// Boot implements guest.App.
func (fs *FileServer) Boot(ctx guest.Ctx) {}

// OnPacket implements guest.App.
func (fs *FileServer) OnPacket(ctx guest.Ctx, p guest.Payload) {
	if fs.tcp != nil {
		fs.tcp.HandleSegment(ctx, p.Src, p.Data)
		return
	}
	fs.udp.HandleSegment(ctx, p.Src, p.Data)
}

func (fs *FileServer) onRequest(ctx guest.Ctx, src netsim.Addr, conn, respID uint64, req any) {
	g, ok := req.(GetFile)
	if !ok {
		return
	}
	ctx.Compute(fs.cfg.RequestCompute)
	reads := (g.Bytes + fs.cfg.DiskChunk - 1) / fs.cfg.DiskChunk
	if reads == 0 {
		reads = 1
	}
	pf := &pendingFile{src: src, conn: conn, respID: respID, bytes: g.Bytes, remaining: reads}
	fs.pending[pf.tag()] = pf
	// Chunks are read SEQUENTIALLY (OnDiskDone issues the next), as a web
	// server streams a cold file. Parallel issue would violate StopWatch's
	// Δd >= max-transfer-time assumption: the k-th parallel request queues
	// behind k-1 others at the disk, so its real completion can exceed Δd.
	fs.issueNextChunk(ctx, pf)
}

func (fs *FileServer) issueNextChunk(ctx guest.Ctx, pf *pendingFile) {
	chunk := fs.cfg.DiskChunk
	if rem := pf.bytes - pf.nextOff; rem < chunk {
		chunk = rem
	}
	if chunk <= 0 {
		chunk = 1
	}
	pf.nextOff += chunk
	ctx.DiskRead(pf.tag(), chunk)
}

// OnDiskDone implements guest.App: when the last chunk is in, respond.
func (fs *FileServer) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {
	pf, ok := fs.pending[d.Tag]
	if !ok {
		return
	}
	pf.remaining--
	if pf.remaining > 0 {
		ctx.Compute(5_000)
		fs.issueNextChunk(ctx, pf)
		return
	}
	delete(fs.pending, d.Tag)
	fs.served++
	ctx.Compute(30_000)
	if fs.tcp != nil {
		_ = fs.tcp.Respond(ctx, pf.src, pf.conn, pf.respID, pf.bytes)
		return
	}
	fs.udp.Respond(ctx, pf.src, pf.conn, pf.respID, pf.bytes)
}

// OnTimer implements guest.App (TCP RTO).
func (fs *FileServer) OnTimer(ctx guest.Ctx, tag string) {
	if fs.tcp != nil {
		fs.tcp.HandleTimer(ctx, tag)
	}
}

// SnapshotAppend implements guest.Snapshotter: the served counter, the
// outstanding disk reads and the transport server's connection state are
// the mutable state (configuration is rebuilt by the factory; pending
// timers are the VMM's to capture). Map entries are emitted in sorted
// order, so identical replicas serialize identically — which is what lets
// long-lived file-serving guests replace via checkpoint instead of
// full-journal replay.
func (fs *FileServer) SnapshotAppend(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, fs.served)
	buf = binary.AppendUvarint(buf, uint64(len(fs.pending)))
	for _, pf := range slices.SortedFunc(maps.Values(fs.pending), (*pendingFile).byRequest) {
		buf = binary.AppendUvarint(buf, pf.respID)
		buf = binary.AppendUvarint(buf, uint64(len(pf.src)))
		buf = append(buf, pf.src...)
		buf = binary.AppendUvarint(buf, pf.conn)
		buf = binary.AppendUvarint(buf, pf.respID)
		buf = binary.AppendVarint(buf, int64(pf.bytes))
		buf = binary.AppendVarint(buf, int64(pf.nextOff))
		buf = binary.AppendVarint(buf, int64(pf.remaining))
	}
	if fs.tcp != nil {
		return fs.tcp.AppendState(buf)
	}
	return fs.udp.AppendState(buf)
}

// RestoreSnapshot implements guest.Snapshotter.
func (fs *FileServer) RestoreSnapshot(data []byte) error {
	r := guest.NewSnapshotReader(data, ErrApp, "file server snapshot")
	served := r.Uvarint("served counter")
	count := r.Count("pending count")
	pending := make(map[string]*pendingFile, count)
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		r.Uvarint("pending id") // the respID, written again below
		pf := &pendingFile{
			src:       netsim.Addr(r.Text("pending src")),
			conn:      r.Uvarint("pending conn"),
			respID:    r.Uvarint("pending respID"),
			bytes:     int(r.Varint("pending bytes")),
			nextOff:   int(r.Varint("pending nextOff")),
			remaining: int(r.Varint("pending remaining")),
		}
		pending[pf.tag()] = pf
	}
	if r.Err() != nil {
		return r.Err()
	}
	var rest []byte
	var err error
	if fs.tcp != nil {
		rest, err = fs.tcp.RestoreState(r.Rest())
	} else {
		rest, err = fs.udp.RestoreState(r.Rest())
	}
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		r.Fail("trailing bytes")
		return r.Err()
	}
	fs.served = served
	fs.pending = pending
	return nil
}

var _ guest.Snapshotter = (*FileServer)(nil)

// Downloader drives file downloads from the fabric side and records
// latencies — the client laptop of Sec. VII-B.
type Downloader struct {
	Client *transport.Client

	latencies []sim.Time
}

// NewDownloader wraps a transport client.
func NewDownloader(c *transport.Client) *Downloader {
	return &Downloader{Client: c}
}

// Fetch downloads one file of the given size from the guest, invoking
// onDone with the measured latency.
func (d *Downloader) Fetch(svc netsim.Addr, mode FileServerMode, bytes int, onDone func(lat sim.Time)) error {
	record := func(r transport.Response) {
		d.latencies = append(d.latencies, r.Latency)
		if onDone != nil {
			onDone(r.Latency)
		}
	}
	req := GetFile{Name: fmt.Sprintf("f%d", bytes), Bytes: bytes}
	switch mode {
	case ModeTCP:
		conn := d.Client.Connect(svc, nil)
		return d.Client.Request(conn, req, record)
	case ModeUDP:
		conn := d.Client.OpenUDP(svc)
		return d.Client.Request(conn, req, record)
	default:
		return fmt.Errorf("%w: fetch mode %d", ErrApp, mode)
	}
}

// Latencies returns all recorded download latencies.
func (d *Downloader) Latencies() []sim.Time {
	out := make([]sim.Time, len(d.latencies))
	copy(out, d.latencies)
	return out
}
