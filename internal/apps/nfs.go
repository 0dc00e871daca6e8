package apps

import (
	"encoding/binary"
	"fmt"

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

var nfsOpNames = [...]string{
	OpSetattr: "setattr", OpLookup: "lookup", OpWrite: "write",
	OpGetattr: "getattr", OpRead: "read", OpCreate: "create",
}

func (op NFSOp) String() string {
	if op < OpSetattr || op > OpCreate {
		return "?"
	}
	return nfsOpNames[op]
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
// The server around the ops is diskServer's; the op table and the lookup
// counter are what is its own.
type NFSServer struct {
	diskServer
	lookups int64 // every 4th lookup misses the name cache → disk read
}

// NewNFSServer builds the server with the given TCP window.
func NewNFSServer(window int) (*NFSServer, error) {
	srv, err := transport.NewTCPServer(window)
	if err != nil {
		return nil, err
	}
	s := &NFSServer{diskServer: newDiskServer("nfs", srv, 20_000)}
	srv.OnRequest = s.onRequest
	return s, nil
}

func (s *NFSServer) onRequest(ctx guest.Ctx, src netsim.Addr, conn, respID uint64, req any) {
	r, ok := req.(NFSRequest)
	if !ok {
		return
	}
	p := &parkedReq{src: src, conn: conn, respID: respID, bytes: 128, remaining: 1}
	rw := r.Bytes
	if rw <= 0 {
		rw = 8192
	}
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
			ctx.DiskRead(s.park(p), 4096)
		} else {
			s.respond(ctx, p)
		}
	case OpRead:
		p.bytes = rw
		ctx.Compute(80_000)
		ctx.DiskRead(s.park(p), rw)
	case OpWrite:
		ctx.Compute(80_000)
		ctx.DiskWrite(s.park(p), rw)
	case OpSetattr:
		ctx.Compute(50_000)
		ctx.DiskWrite(s.park(p), 512)
	case OpCreate:
		ctx.Compute(70_000)
		ctx.DiskWrite(s.park(p), 4096)
	}
}

// SnapshotAppend implements guest.Snapshotter: the lookup counter (the
// name-cache model is the lookup count mod 4, so the counter IS the cache
// state), then the server's.
func (s *NFSServer) SnapshotAppend(buf []byte) []byte {
	return s.diskServer.SnapshotAppend(binary.AppendVarint(buf, s.lookups))
}

// RestoreSnapshot implements guest.Snapshotter.
func (s *NFSServer) RestoreSnapshot(data []byte) error {
	r := guest.NewSnapshotReader(data, ErrApp, "nfs server snapshot")
	lookups := r.Varint("lookup counter")
	if r.Err() != nil {
		return r.Err()
	}
	if err := s.diskServer.RestoreSnapshot(r.Rest()); err != nil {
		return err
	}
	s.lookups = lookups
	return nil
}

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

	issued    uint64
	completed uint64
	latencies []sim.Time
}

// NFSLoadGenConfig parameterizes the generator.
type NFSLoadGenConfig struct {
	// Processes is the number of client processes (paper: 5).
	Processes int
	// RatePerSec is the constant aggregate op rate (paper: 25..400).
	RatePerSec float64
}

// nfsSlotsPerProcess models the kernel NFS client's asynchronous RPC slots:
// each process can have this many operations outstanding, one connection
// per slot; nhfsstone's constant offered rate is only sustainable with RPC
// concurrency. A read or write carries nfsIOBytes.
const (
	nfsSlotsPerProcess = 8
	nfsIOBytes         = 8192
)

// NewNFSLoadGen creates the generator; Start begins issuing.
func NewNFSLoadGen(loop *sim.Loop, rng *sim.Rand, client *transport.Client, svc netsim.Addr, mix []MixEntry, cfg NFSLoadGenConfig) (*NFSLoadGen, error) {
	if loop == nil || rng == nil || client == nil {
		return nil, fmt.Errorf("%w: nfs loadgen needs loop, rng, client", ErrApp)
	}
	if cfg.Processes <= 0 || cfg.RatePerSec <= 0 || len(mix) == 0 {
		return nil, fmt.Errorf("%w: nfs loadgen config %+v", ErrApp, cfg)
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
	for i := 0; i < cfg.Processes*nfsSlotsPerProcess; i++ {
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
	if op == OpRead || op == OpWrite {
		req.Bytes = nfsIOBytes
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
