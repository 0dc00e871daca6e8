package apps

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
)

// NFSOp enumerates the NFS operations in the paper's extracted mix.
type NFSOp int

// NFS operations (Sec. VII-C).
const (
	OpSetattr NFSOp = iota + 1
	OpLookup
	OpWrite
	OpGetattr
	OpRead
	OpCreate
)

func (op NFSOp) String() string {
	switch op {
	case OpSetattr:
		return "setattr"
	case OpLookup:
		return "lookup"
	case OpWrite:
		return "write"
	case OpGetattr:
		return "getattr"
	case OpRead:
		return "read"
	case OpCreate:
		return "create"
	default:
		return "?"
	}
}

// MixEntry pairs an op with its share of the workload.
type MixEntry struct {
	Op     NFSOp
	Weight float64
}

// PaperMix is the operation mix the paper extracted with nfsstat and fed to
// nhfsstone: 11.37% setattr, 24.07% lookup, 11.92% write, 7.93% getattr,
// 32.34% read, 12.37% create.
func PaperMix() []MixEntry {
	return []MixEntry{
		{OpSetattr, 11.37},
		{OpLookup, 24.07},
		{OpWrite, 11.92},
		{OpGetattr, 7.93},
		{OpRead, 32.34},
		{OpCreate, 12.37},
	}
}

// NFSRequest is the wire request descriptor.
type NFSRequest struct {
	Op    NFSOp
	Bytes int // payload for read/write
}

// NFSServer is the guest app of Fig. 6: an NFS server over the TCP-like
// transport. Disk behaviour per op is deterministic (cache behaviour is
// modeled by op counters, not randomness, to preserve replica determinism).
type NFSServer struct {
	tcp *transport.TCPServer

	// pending holds the ops waiting on disk, by the tag of the disk request.
	pending map[string]*pendingNFS
	lookups int64 // every 4th lookup misses the name cache → disk read

	served uint64
}

type pendingNFS struct {
	src      netsim.Addr
	conn     uint64
	respID   uint64
	respSize int
}

// tag names the op's disk request: a respID means something only together
// with the client that chose it (pendingFile.tag).
func (p *pendingNFS) tag() string { return fmt.Sprintf("nfs:%d:%s", p.respID, p.src) }

// byRequest is the snapshot order, (respID, src), as pendingFile's.
func (p *pendingNFS) byRequest(o *pendingNFS) int {
	return cmp.Or(cmp.Compare(p.respID, o.respID), cmp.Compare(p.src, o.src))
}

var _ guest.App = (*NFSServer)(nil)

// NewNFSServer builds the server with the given TCP window.
func NewNFSServer(window int) (*NFSServer, error) {
	srv, err := transport.NewTCPServer(window)
	if err != nil {
		return nil, err
	}
	s := &NFSServer{tcp: srv, pending: make(map[string]*pendingNFS)}
	srv.OnRequest = s.onRequest
	return s, nil
}

// Served reports completed operations.
func (s *NFSServer) Served() uint64 { return s.served }

// Boot implements guest.App.
func (s *NFSServer) Boot(ctx guest.Ctx) {}

// OnPacket implements guest.App.
func (s *NFSServer) OnPacket(ctx guest.Ctx, p guest.Payload) {
	s.tcp.HandleSegment(ctx, p.Src, p.Data)
}

func (s *NFSServer) onRequest(ctx guest.Ctx, src netsim.Addr, conn, respID uint64, req any) {
	r, ok := req.(NFSRequest)
	if !ok {
		return
	}
	p := &pendingNFS{src: src, conn: conn, respID: respID, respSize: 128}
	switch r.Op {
	case OpGetattr:
		// Attribute cache: compute only.
		ctx.Compute(40_000)
		s.respond(ctx, p)
	case OpLookup:
		ctx.Compute(60_000)
		s.lookups++
		if s.lookups%4 == 0 {
			// Name-cache miss: directory block from disk.
			ctx.DiskRead(s.await(p), 4096)
		} else {
			s.respond(ctx, p)
		}
	case OpRead:
		bytes := r.Bytes
		if bytes <= 0 {
			bytes = 8192
		}
		p.respSize = bytes
		ctx.Compute(80_000)
		ctx.DiskRead(s.await(p), bytes)
	case OpWrite:
		bytes := r.Bytes
		if bytes <= 0 {
			bytes = 8192
		}
		ctx.Compute(80_000)
		ctx.DiskWrite(s.await(p), bytes)
	case OpSetattr:
		ctx.Compute(50_000)
		ctx.DiskWrite(s.await(p), 512)
	case OpCreate:
		ctx.Compute(70_000)
		ctx.DiskWrite(s.await(p), 4096)
	}
}

// await parks p until its disk request completes and returns the request's
// tag.
func (s *NFSServer) await(p *pendingNFS) string {
	tag := p.tag()
	s.pending[tag] = p
	return tag
}

func (s *NFSServer) respond(ctx guest.Ctx, p *pendingNFS) {
	s.served++
	_ = s.tcp.Respond(ctx, p.src, p.conn, p.respID, p.respSize)
}

// OnDiskDone implements guest.App.
func (s *NFSServer) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {
	p, ok := s.pending[d.Tag]
	if !ok {
		return
	}
	delete(s.pending, d.Tag)
	ctx.Compute(20_000)
	s.respond(ctx, p)
}

// OnTimer implements guest.App.
func (s *NFSServer) OnTimer(ctx guest.Ctx, tag string) {
	s.tcp.HandleTimer(ctx, tag)
}

// SnapshotAppend implements guest.Snapshotter: the served and lookup
// counters (the name-cache model is the lookup count mod 4, so the
// counter IS the cache state), the ops waiting on disk and the TCP
// server's connection state. Pending entries are emitted in byRequest order
// so identical replicas serialize identically — which lets long-lived NFS
// guests replace via checkpoint instead of full-journal replay.
func (s *NFSServer) SnapshotAppend(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, s.served)
	buf = binary.AppendVarint(buf, s.lookups)
	buf = binary.AppendUvarint(buf, uint64(len(s.pending)))
	for _, p := range slices.SortedFunc(maps.Values(s.pending), (*pendingNFS).byRequest) {
		buf = binary.AppendUvarint(buf, uint64(len(p.src)))
		buf = append(buf, p.src...)
		buf = binary.AppendUvarint(buf, p.conn)
		buf = binary.AppendUvarint(buf, p.respID)
		buf = binary.AppendVarint(buf, int64(p.respSize))
	}
	return s.tcp.AppendState(buf)
}

// RestoreSnapshot implements guest.Snapshotter.
func (s *NFSServer) RestoreSnapshot(data []byte) error {
	r := guest.NewSnapshotReader(data, ErrApp, "nfs server snapshot")
	served := r.Uvarint("served counter")
	lookups := r.Varint("lookup counter")
	count := r.Count("pending count")
	pending := make(map[string]*pendingNFS, count)
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		p := &pendingNFS{
			src:      netsim.Addr(r.Text("pending src")),
			conn:     r.Uvarint("pending conn"),
			respID:   r.Uvarint("pending respID"),
			respSize: int(r.Varint("pending respSize")),
		}
		pending[p.tag()] = p
	}
	if r.Err() != nil {
		return r.Err()
	}
	rest, err := s.tcp.RestoreState(r.Rest())
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		r.Fail("trailing bytes")
		return r.Err()
	}
	s.served = served
	s.lookups = lookups
	s.pending = pending
	return nil
}

var _ guest.Snapshotter = (*NFSServer)(nil)

// NFSLoadGen is the fabric-side nhfsstone stand-in: N client processes
// sharing a constant aggregate op rate against one NFS guest, drawing ops
// from the mix. It records per-op latency.
type NFSLoadGen struct {
	loop    *sim.Loop
	rng     *sim.Rand
	client  *transport.Client
	svc     netsim.Addr
	mix     []MixEntry
	totalW  float64
	conns   []uint64
	gap     sim.Time
	stopAt  sim.Time
	started bool

	// cfgSizes holds {readBytes, writeBytes}.
	cfgSizes [2]int

	issued    uint64
	completed uint64
	latencies []sim.Time
}

// NFSLoadGenConfig parameterizes the generator.
type NFSLoadGenConfig struct {
	// Processes is the number of client processes (paper: 5).
	Processes int
	// SlotsPerProcess models the kernel NFS client's asynchronous RPC
	// slots: each process can have this many operations outstanding
	// (default 8). One connection per slot; nhfsstone's constant offered
	// rate is only sustainable with RPC concurrency.
	SlotsPerProcess int
	// RatePerSec is the constant aggregate op rate (paper: 25..400).
	RatePerSec float64
	// ReadBytes / WriteBytes are the payload sizes.
	ReadBytes, WriteBytes int
}

// NewNFSLoadGen creates the generator; Start begins issuing.
func NewNFSLoadGen(loop *sim.Loop, rng *sim.Rand, client *transport.Client, svc netsim.Addr, mix []MixEntry, cfg NFSLoadGenConfig) (*NFSLoadGen, error) {
	if loop == nil || rng == nil || client == nil {
		return nil, fmt.Errorf("%w: nfs loadgen needs loop, rng, client", ErrApp)
	}
	if cfg.Processes <= 0 || cfg.RatePerSec <= 0 || len(mix) == 0 {
		return nil, fmt.Errorf("%w: nfs loadgen config %+v", ErrApp, cfg)
	}
	if cfg.ReadBytes <= 0 {
		cfg.ReadBytes = 8192
	}
	if cfg.WriteBytes <= 0 {
		cfg.WriteBytes = 8192
	}
	if cfg.SlotsPerProcess <= 0 {
		cfg.SlotsPerProcess = 8
	}
	g := &NFSLoadGen{
		loop:   loop,
		rng:    rng,
		client: client,
		svc:    svc,
		mix:    mix,
		gap:    sim.Time(float64(sim.Second) / cfg.RatePerSec),
	}
	for _, m := range mix {
		g.totalW += m.Weight
	}
	g.cfgSizes = [2]int{cfg.ReadBytes, cfg.WriteBytes}
	for i := 0; i < cfg.Processes*cfg.SlotsPerProcess; i++ {
		g.conns = append(g.conns, client.Connect(svc, nil))
	}
	return g, nil
}

// Start begins issuing ops until the given time.
func (g *NFSLoadGen) Start(until sim.Time) {
	if g.started {
		return
	}
	g.started = true
	g.stopAt = until
	g.scheduleNext()
}

func (g *NFSLoadGen) scheduleNext() {
	g.loop.After(g.gap, "nfs:op", func() {
		if g.loop.Now() >= g.stopAt {
			return
		}
		g.issueOne()
		g.scheduleNext()
	})
}

func (g *NFSLoadGen) issueOne() {
	op := g.drawOp()
	req := NFSRequest{Op: op}
	switch op {
	case OpRead:
		req.Bytes = g.cfgSizes[0]
	case OpWrite:
		req.Bytes = g.cfgSizes[1]
	}
	conn := g.conns[int(g.issued)%len(g.conns)]
	g.issued++
	start := g.loop.Now()
	_ = g.client.Request(conn, req, func(r transport.Response) {
		g.completed++
		g.latencies = append(g.latencies, g.loop.Now()-start)
	})
}

func (g *NFSLoadGen) drawOp() NFSOp {
	x := g.rng.Float64() * g.totalW
	for _, m := range g.mix {
		if x < m.Weight {
			return m.Op
		}
		x -= m.Weight
	}
	return g.mix[len(g.mix)-1].Op
}

// Issued and Completed report op counters.
func (g *NFSLoadGen) Issued() uint64 { return g.issued }

// Completed reports finished ops.
func (g *NFSLoadGen) Completed() uint64 { return g.completed }

// Latencies returns per-op latencies.
func (g *NFSLoadGen) Latencies() []sim.Time {
	out := make([]sim.Time, len(g.latencies))
	copy(out, g.latencies)
	return out
}
