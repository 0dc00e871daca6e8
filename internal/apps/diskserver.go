package apps

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"
	"strconv"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/transport"
)

// diskServer is the request → disk → respond server FileServer and
// NFSServer embed: a transport stack, the requests parked on disk I/O and
// the served counter. The embedding app decides what a request costs and
// which disk operations it issues; the path from a disk interrupt to the
// response, and the snapshot of all of it, is here once.
type diskServer struct {
	srv transport.Server
	// kind ("file", "nfs") prefixes disk tags and names snapshot errors.
	kind string
	// doneCompute is the branch cost of answering once the last disk
	// operation is in.
	doneCompute int64
	// more issues the next disk operation of a request that has some left
	// (FileServer's chunked read; nil when every request parks on one, and
	// then a count a foreign snapshot carried is not waited for).
	more func(ctx guest.Ctx, p *parkedReq)

	// pending holds the requests waiting on disk, by the tag of their disk
	// operations.
	pending map[string]*parkedReq
	served  uint64
}

// What embeds a diskServer is a guest.App that can be checkpointed.
var (
	_ guest.App         = (*diskServer)(nil)
	_ guest.Snapshotter = (*diskServer)(nil)
)

// parkedReq is a request between its arrival and its response.
type parkedReq struct {
	src          netsim.Addr
	conn, respID uint64
	bytes        int // response size
	nextOff      int // next file offset to read (FileServer)
	remaining    int // disk operations still to complete
}

func newDiskServer(kind string, srv transport.Server, doneCompute int64) diskServer {
	return diskServer{srv: srv, kind: kind, doneCompute: doneCompute, pending: make(map[string]*parkedReq)}
}

// tag names p's disk operations. Response ids are client-chosen, like
// connection ids, and mean something only together with the client.
func (s *diskServer) tag(p *parkedReq) string {
	return s.kind + ":" + strconv.FormatUint(p.respID, 10) + ":" + string(p.src)
}

// park holds p until its disk operations complete and returns their tag.
func (s *diskServer) park(p *parkedReq) string {
	tag := s.tag(p)
	s.pending[tag] = p
	return tag
}

func (s *diskServer) respond(ctx guest.Ctx, p *parkedReq) {
	s.served++
	_ = s.srv.Respond(ctx, p.src, p.conn, p.respID, p.bytes)
}

// Served reports answered requests.
func (s *diskServer) Served() uint64 { return s.served }

// Boot implements guest.App.
func (s *diskServer) Boot(ctx guest.Ctx) {}

// OnPacket implements guest.App.
func (s *diskServer) OnPacket(ctx guest.Ctx, p guest.Payload) {
	s.srv.HandleSegment(ctx, p.Src, p.Data)
}

// OnTimer implements guest.App: a server arms no timers.
func (s *diskServer) OnTimer(ctx guest.Ctx, tag string) {}

// OnDiskDone implements guest.App: when the last operation is in, respond.
func (s *diskServer) OnDiskDone(ctx guest.Ctx, d guest.DiskDone) {
	p, ok := s.pending[d.Tag]
	if !ok {
		return
	}
	if p.remaining--; p.remaining > 0 && s.more != nil {
		s.more(ctx, p)
		return
	}
	delete(s.pending, d.Tag)
	ctx.Compute(s.doneCompute)
	s.respond(ctx, p)
}

// SnapshotAppend implements guest.Snapshotter: the served counter, the
// parked requests and the transport server's connection state are the
// mutable state (configuration is rebuilt by the factory; pending timers
// are the VMM's to capture). Requests are emitted in (respID, src) order,
// so identical replicas serialize identically — which is what lets
// long-lived serving guests replace via checkpoint instead of full-journal
// replay.
func (s *diskServer) SnapshotAppend(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, s.served)
	buf = binary.AppendUvarint(buf, uint64(len(s.pending)))
	for _, p := range slices.SortedFunc(maps.Values(s.pending), func(a, b *parkedReq) int {
		return cmp.Or(cmp.Compare(a.respID, b.respID), cmp.Compare(a.src, b.src))
	}) {
		buf = binary.AppendUvarint(buf, uint64(len(p.src)))
		buf = append(buf, p.src...)
		buf = binary.AppendUvarint(buf, p.conn)
		buf = binary.AppendUvarint(buf, p.respID)
		buf = binary.AppendVarint(buf, int64(p.bytes))
		buf = binary.AppendVarint(buf, int64(p.nextOff))
		buf = binary.AppendVarint(buf, int64(p.remaining))
	}
	return s.srv.AppendState(buf)
}

// RestoreSnapshot implements guest.Snapshotter.
func (s *diskServer) RestoreSnapshot(data []byte) error {
	r := guest.NewSnapshotReader(data, ErrApp, s.kind+" server snapshot")
	served := r.Uvarint("served counter")
	count := r.Count("pending count")
	pending := make(map[string]*parkedReq, count)
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		p := &parkedReq{
			src:       netsim.Addr(r.Text("pending src")),
			conn:      r.Uvarint("pending conn"),
			respID:    r.Uvarint("pending respID"),
			bytes:     int(r.Varint("pending bytes")),
			nextOff:   int(r.Varint("pending nextOff")),
			remaining: int(r.Varint("pending remaining")),
		}
		pending[s.tag(p)] = p
	}
	if r.Err() != nil {
		return r.Err()
	}
	rest, err := s.srv.RestoreState(r.Rest())
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		r.Fail("trailing bytes")
		return r.Err()
	}
	s.served = served
	s.pending = pending
	return nil
}
