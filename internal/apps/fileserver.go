// Package apps contains the guest workloads of the paper's evaluation:
// the web/file server of Fig. 5, the NFS server and nhfsstone-style load
// generator of Fig. 6, PARSEC-like compute profiles for Fig. 7, and the
// attacker probe / victim workloads behind Fig. 4.
package apps

import (
	"errors"
	"fmt"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
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
}

// DefaultFileServerConfig mirrors the paper's Apache setup: TCP, cold
// reads, 64KB readahead.
func DefaultFileServerConfig() FileServerConfig {
	return FileServerConfig{Mode: ModeTCP}
}

// The paper's Apache setup: a TCP window of fileWindow segments, cold files
// (the paper's downloads were from a cold start) read fileChunk bytes at a
// time, and fileRequestCompute branches to parse a request.
const (
	fileWindow         = 16
	fileChunk          = 64 << 10
	fileRequestCompute = 50_000
)

// FileServer is the guest app behind Figs. 4 and 5: it serves GetFile
// requests from disk over TCP or UDP. The server around the read is
// diskServer's; the sequential chunked read is what is its own.
type FileServer struct {
	diskServer
}

// NewFileServer builds the app.
func NewFileServer(cfg FileServerConfig) (*FileServer, error) {
	fs := &FileServer{}
	var srv transport.Server
	switch cfg.Mode {
	case ModeTCP:
		tcp, err := transport.NewTCPServer(fileWindow)
		if err != nil {
			return nil, err
		}
		tcp.OnRequest = fs.onRequest
		srv = tcp
	case ModeUDP:
		udp := transport.NewUDPServer()
		udp.OnRequest = fs.onRequest
		srv = udp
	default:
		return nil, fmt.Errorf("%w: file server mode %d", ErrApp, cfg.Mode)
	}
	fs.diskServer = newDiskServer("file", srv, 30_000)
	fs.more = func(ctx guest.Ctx, p *parkedReq) {
		ctx.Compute(5_000)
		fs.readChunk(ctx, p)
	}
	return fs, nil
}

func (fs *FileServer) onRequest(ctx guest.Ctx, src netsim.Addr, conn, respID uint64, req any) {
	g, ok := req.(GetFile)
	if !ok {
		return
	}
	ctx.Compute(fileRequestCompute)
	reads := max(1, (g.Bytes+fileChunk-1)/fileChunk)
	p := &parkedReq{src: src, conn: conn, respID: respID, bytes: g.Bytes, remaining: reads}
	fs.park(p)
	// Chunks are read SEQUENTIALLY (diskServer.OnDiskDone issues the next),
	// as a web server streams a cold file. Parallel issue would violate
	// StopWatch's Δd >= max-transfer-time assumption: the k-th parallel
	// request queues behind k-1 others at the disk, so its real completion
	// can exceed Δd.
	fs.readChunk(ctx, p)
}

func (fs *FileServer) readChunk(ctx guest.Ctx, p *parkedReq) {
	chunk := max(1, min(fileChunk, p.bytes-p.nextOff))
	p.nextOff += chunk
	ctx.DiskRead(fs.tag(p), chunk)
}

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
