// Package netsim simulates the cloud's network fabric: addressable nodes
// joined by links with latency, jitter, bandwidth and loss. It carries
// client↔cloud traffic, ingress replication, VMM proposal exchange and
// egress tunnelling for the StopWatch reproduction.
//
// The model is deliberately simple — FIFO serialization per directed link,
// additive latency + jitter — because the paper's performance story is
// driven by round-trip structure and packet counts, not by queueing
// subtleties.
//
// # Sharding
//
// The fabric can be partitioned across K simulation loops (SetShards +
// AssignShard) for multi-core execution under a conservative-lookahead
// coordinator (sim.Coordinator). Every mutable hot-path structure — link
// runtime state, packet pools, label interning, delivery counters — is
// per-shard, owned by the shard of the packet's source address; a send
// whose destination lives on another shard is parked in a per-shard-pair
// outbox and injected at the next barrier (Exchange). Determinism across
// shard counts rests on two design points:
//
//   - Per-link state. Each directed link has its own FIFO horizons and its
//     own seeded RNG stream (derived from the fabric seed and the link's
//     endpoint pair), so the jitter/loss draws a packet sees depend only on
//     that link's send history — not on how fabric-wide traffic interleaves,
//     which varies with the partition.
//
//   - Partition-invariant arrival order. Every delivery is scheduled with
//     sim.Loop.AtArrivalTimer under the key (link hash, per-link send seq),
//     so same-instant arrivals at one node order identically whether they
//     were scheduled locally or merged in from K shards.
//
// # A link's shape comes from its endpoints
//
// An address may have an access link (SetAccess: a client's WLAN, the
// egress tunnel). A directed link is created by its first send or fault, in
// its source's access link, else its destination's, else the fabric default,
// and keeps that shape: a fabric holds links only for pairs that were used.
//
// # Names at the edge, IDs inside
//
// An Addr is a name. The fabric interns each one to an Endpoint — a record
// of the attached node, the shard and the outgoing links — and a packet
// carries its two endpoints, so a hop hashes no string. A long-lived sender
// (multicast sender, replica wiring, gateway, client) may hold Endpoints:
// it resolves them with Network.Endpoint when it is wired and sends with
// AllocTo. AllocPacket, Packet literals and the (Addr, Addr) fault calls
// take names and pay one lookup per endpoint. Names stay the truth: Send
// re-resolves an endpoint that no longer matches the packet's Src/Dst.
//
// Interning is legal wherever topology mutation is (initialization, barrier
// context), and in a Send that meets a new address on a shard goroutine:
// the name table is locked. An endpoint's ID is dense and process-local. It
// keys EndpointTables and must never reach an ordering key, a seed or an
// output: link hashes and RNG streams are functions of the two names, so a
// run is the same whatever order addresses were interned in.
package netsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"stopwatch/internal/sim"
)

// ErrNet reports network configuration errors.
var ErrNet = errors.New("netsim: invalid configuration")

// Addr identifies a node on the fabric.
type Addr string

// Endpoint is an interned Addr: the fabric's record for that address,
// held by pointer (Network.Endpoint).
type Endpoint struct {
	addr  Addr
	id    uint32 // dense from 1 in interning order; EndpointTable key only
	shard int    // index into Network.shards (AssignShard; 0 by default)
	node  Node   // receives arrivals; nil (never attached, detached) drops them
	// access is the address's access link (SetAccess); nil for none.
	access *LinkConfig
	// links holds the directed links out of this address, by destination.
	// Runtime state in them is touched only by this address's shard.
	links EndpointTable[*link]
}

// Addr returns the endpoint's name.
func (e *Endpoint) Addr() Addr { return e.addr }

// EndpointTable maps endpoints to per-peer state — an address's outgoing
// links, a receiver's source streams — in one slice of (ID, value) pairs
// sorted by endpoint ID: a binary search, no hashing, memory in proportion
// to the peers seen.
type EndpointTable[V any] struct {
	ents []tableEntry[V]
}

type tableEntry[V any] struct {
	id uint32
	v  V
}

func (t *EndpointTable[V]) find(e *Endpoint) (int, bool) {
	id := e.id
	lo, hi := 0, len(t.ents)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.ents[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.ents) && t.ents[lo].id == id
}

// Get returns the value stored for e.
func (t *EndpointTable[V]) Get(e *Endpoint) (v V, ok bool) {
	i, ok := t.find(e)
	if ok {
		v = t.ents[i].v
	}
	return v, ok
}

// Put stores v for e, replacing any earlier value.
func (t *EndpointTable[V]) Put(e *Endpoint, v V) {
	i, ok := t.find(e)
	if ok {
		t.ents[i].v = v
		return
	}
	if t.ents == nil {
		t.ents = make([]tableEntry[V], 0, 4) // a replica's handful of peers at once
	}
	t.ents = slices.Insert(t.ents, i, tableEntry[V]{e.id, v})
}

// Delete removes e's value, if any.
func (t *EndpointTable[V]) Delete(e *Endpoint) {
	if i, ok := t.find(e); ok {
		t.ents = slices.Delete(t.ents, i, i+1)
	}
}

// Packet is a unit of traffic. The hot protocol payloads ride in Body, the
// typed union (no boxing); Payload carries any other upper-layer structure;
// Size is what the wire sees.
//
// Packets obtained from Network.AllocPacket are pooled: the fabric recycles
// them after delivery (or loss), so a Node must not retain a delivered
// *Packet past its Deliver call — Clone what must outlive it. Payloads are
// shared immutable values and may be kept.
type Packet struct {
	ID      uint64
	Src     Addr
	Dst     Addr
	Size    int // bytes on the wire
	Kind    string
	Body    PacketBody
	Payload any

	// src and dst cache the endpoints of Src and Dst: filled by AllocTo,
	// or by Send for a packet built from names.
	src, dst *Endpoint
	pooled   bool // recycled into the owning shard's freelist after delivery
}

// Clone returns a shallow copy with a fresh identity-preserving struct
// (payload is shared; payloads must be treated as immutable). The copy is
// never pool-owned, so it is safe to retain.
func (p *Packet) Clone() *Packet {
	c := *p
	c.pooled = false
	return &c
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %s→%s %dB", p.ID, p.Kind, p.Src, p.Dst, p.Size)
}

// Node consumes packets delivered by the fabric.
type Node interface {
	// Address returns the node's fabric address.
	Address() Addr
	// Deliver is invoked by the fabric when a packet arrives. The packet may
	// be pool-owned: it must not be retained after Deliver returns (Clone it
	// instead); its Payload may be kept.
	Deliver(pkt *Packet)
}

// LinkConfig is a link shape: the fabric default or an address's access link.
type LinkConfig struct {
	// Latency is the propagation delay. It must be positive on any link
	// that can cross a shard boundary: the fabric-wide minimum bounds the
	// coordinator's lookahead window.
	Latency sim.Time
	// JitterMax adds U[0,JitterMax) to each packet.
	JitterMax sim.Time
	// BandwidthBps is bytes-per-second capacity; 0 means infinite.
	BandwidthBps int64
	// LossProb drops packets with this probability (failure injection).
	LossProb float64
}

func (c LinkConfig) validate() error {
	if c.Latency < 0 || c.JitterMax < 0 || c.BandwidthBps < 0 ||
		c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("%w: %+v", ErrNet, c)
	}
	return nil
}

// link is one directed link's runtime state, owned by the source address's
// shard. The per-link RNG stream and the (hash, arrSeq) arrival key are
// what make fabric behavior independent of the partition.
type link struct {
	cfg      *LinkConfig  // its endpoints' shape (linkConfig), fixed at creation
	rng      sim.FastRand // the link's own jitter and loss stream
	hash     uint64       // stable hash of (src, dst): arrival ordering key k1
	arrSeq   uint64       // per-link send counter: arrival ordering key k2
	dstShard int
	departed sim.Time // latest departure instant asked for: sends never go back
	nextFree sim.Time // FIFO serialization horizon
	lastArr  sim.Time // FIFO delivery horizon: links never reorder

	// Fault-injection switches (fault.go): a loss-probability override
	// (lossUnset = none) and a partition toggle. Flipped only at barriers;
	// neither resets the link's RNG stream or FIFO horizons.
	faultLoss   float64
	partitioned bool
}

// lossUnset marks a link with no loss override in effect.
const lossUnset = -1.0

// inject is one cross-shard delivery parked in an outbox until the next
// barrier.
type inject struct {
	when   sim.Time
	k1, k2 uint64
	pkt    *Packet
}

// netShard is the per-shard slice of fabric state. Everything here is
// touched only by the owning shard's goroutine during a lookahead window,
// or by the coordinator at a barrier (never both at once).
type netShard struct {
	idx  int
	loop *sim.Loop

	// kinds holds one row per packet kind this shard has scheduled a
	// delivery of or lost: its interned delivery event label, so the hot
	// path does not build a "net:deliver:"+kind string per packet, and the
	// packets of that kind this shard delivered and lost. Stats sums the
	// rows.
	kinds []kindCount
	// freePkts is this shard's pooled-packet freelist. A send draws on the
	// sender's pool and delivery refills the receiver's, so Exchange levels
	// the pools at every barrier; between barriers only this shard uses it.
	freePkts []*Packet
	// links carves the link records of the addresses on this shard, under
	// the same rule as freePkts. A record is never handed out twice, and
	// exactly one table entry owns it.
	links sim.Chunk[link]

	// outs[k] parks deliveries destined for shard k until Exchange.
	outs [][]inject

	nextID uint64
	idBase uint64
	// crossed counts sends parked in outs: a function of the partition,
	// so it stays out of Stats and out of the metrics registry.
	crossed uint64
}

// kindCount is one packet kind's row in a shard's kinds.
type kindCount struct {
	kind, label     string
	delivered, lost uint64
}

func newShard(idx, total int, loop *sim.Loop) *netShard {
	return &netShard{
		idx:    idx,
		loop:   loop,
		outs:   make([][]inject, total),
		idBase: uint64(idx+1) << 48,
	}
}

// kindRow returns the index of kind's row, adding the row on first use:
// scanned, not hashed — a fabric carries a dozen kinds.
func (sh *netShard) kindRow(kind string) uint64 {
	for i := range sh.kinds {
		if sh.kinds[i].kind == kind {
			return uint64(i)
		}
	}
	sh.kinds = append(sh.kinds, kindCount{kind: kind, label: "net:deliver:" + kind})
	return uint64(len(sh.kinds) - 1)
}

// raceChecks enables pool poisoning, set by netsim_race.go in -race builds:
// recycle turns a packet into recycledPkt, and AllocTo panics on one that
// is anything else — a Node kept a delivered *Packet and wrote to it, and
// the barrier's levelling may have moved it to another shard's goroutine.
var raceChecks, recycledPkt = false, Packet{Kind: "netsim:recycled", Size: -1}

// recycle returns a pool-owned packet to this shard's freelist, clean but
// for the header fields AllocTo overwrites.
func (sh *netShard) recycle(p *Packet) {
	if !p.pooled {
		return
	}
	p.ID = 0
	p.Payload = nil
	p.Body = PacketBody{}
	p.pooled = false
	if raceChecks {
		*p = recycledPkt
	}
	sh.freePkts = append(sh.freePkts, p)
}

// Network is the fabric. Topology (nodes, access links, shard assignment)
// is shared and must only be mutated at initialization or a coordinator
// barrier; all per-packet state is per-shard.
type Network struct {
	// mu guards byName: a shard goroutine may intern a new address.
	mu     sync.Mutex
	byName map[Addr]*Endpoint

	defCfg *LinkConfig
	shards []*netShard

	// seedBase derives the per-link RNG streams; drawn once from the
	// fabric stream at construction.
	seedBase uint64
	linkSrc  *sim.Source

	// minLatency is the minimum latency of the default and every access
	// link — the conservative lookahead bound. It only ever decreases, and
	// depends only on the configured topology, never on the partition.
	minLatency sim.Time
}

// New creates a network with the given default link parameters, running on
// a single loop until SetShards partitions it.
func New(loop *sim.Loop, rng *sim.Rand, def LinkConfig) (*Network, error) {
	if loop == nil || rng == nil {
		return nil, fmt.Errorf("%w: nil loop or rng", ErrNet)
	}
	if err := def.validate(); err != nil {
		return nil, err
	}
	defCfg := def
	seedBase := rng.Uint64()
	n := &Network{
		byName:     make(map[Addr]*Endpoint),
		defCfg:     &defCfg,
		shards:     []*netShard{newShard(0, 1, loop)},
		seedBase:   seedBase,
		linkSrc:    sim.NewSource(seedBase),
		minLatency: def.Latency,
	}
	return n, nil
}

// Endpoint interns addr: what a sender resolves once, when it is wired.
func (n *Network) Endpoint(addr Addr) *Endpoint { return n.intern(addr, true) }

// intern returns addr's record, creating it if asked to; nil if absent.
func (n *Network) intern(addr Addr, create bool) *Endpoint {
	n.mu.Lock()
	e := n.byName[addr]
	if e == nil && create {
		e = &Endpoint{addr: addr, id: uint32(len(n.byName) + 1)}
		n.byName[addr] = e
	}
	n.mu.Unlock()
	return e
}

// SetShards partitions the fabric across the given loops. It must be
// called before any traffic flows (the per-shard state starts empty).
// Addresses default to shard 0; AssignShard moves them.
func (n *Network) SetShards(loops []*sim.Loop) error {
	if len(loops) == 0 {
		return fmt.Errorf("%w: SetShards needs at least one loop", ErrNet)
	}
	shards := make([]*netShard, len(loops))
	for i, l := range loops {
		if l == nil {
			return fmt.Errorf("%w: nil shard loop", ErrNet)
		}
		shards[i] = newShard(i, len(loops), l)
	}
	n.shards = shards
	return nil
}

// AssignShard places an address's fabric endpoint on shard k: deliveries
// to it run on that shard's loop, and sends from it draw on that shard's
// state. Must be called before the address sends or receives traffic.
func (n *Network) AssignShard(addr Addr, k int) error {
	if addr == "" || k < 0 || k >= len(n.shards) {
		return fmt.Errorf("%w: AssignShard(%q, %d) of %d shards", ErrNet, addr, k, len(n.shards))
	}
	n.Endpoint(addr).shard = k
	return nil
}

// ShardLoop returns shard k's loop.
func (n *Network) ShardLoop(k int) *sim.Loop { return n.shards[k].loop }

// Lookahead returns the conservative window bound, the least default or
// access link latency: a coordinator may let shards run this far ahead of
// the last barrier without any cross-shard effect arriving early.
func (n *Network) Lookahead() sim.Time { return n.minLatency }

// AllocPacket is AllocTo by name: one lookup per endpoint.
func (n *Network) AllocPacket(src, dst Addr, size int, kind string, payload any) *Packet {
	return n.AllocTo(n.Endpoint(src), n.Endpoint(dst), size, kind, payload)
}

// AllocTo checks a packet out of the source endpoint's shard pool,
// populated with the given header. The fabric reclaims it after delivery
// or loss, so senders hand it straight to Send and never keep it. Set
// Body on the returned packet for the typed hot-path payloads.
func (n *Network) AllocTo(src, dst *Endpoint, size int, kind string, payload any) *Packet {
	sh := n.shards[src.shard]
	var p *Packet
	if k := len(sh.freePkts); k > 0 {
		p = sh.freePkts[k-1]
		sh.freePkts[k-1] = nil
		sh.freePkts = sh.freePkts[:k-1]
		if raceChecks && *p != recycledPkt {
			panic(fmt.Sprintf("netsim: corrupted pooled packet %s — retained after delivery?", p))
		}
	} else {
		p = &Packet{}
	}
	p.Src, p.Dst, p.src, p.dst = src.addr, dst.addr, src, dst
	p.Size, p.Kind, p.Payload, p.pooled = size, kind, payload, true
	return p
}

// resolved returns addr's record: e if that is it, one lookup otherwise.
func (n *Network) resolved(e *Endpoint, addr Addr) *Endpoint {
	if e != nil && e.addr == addr {
		return e
	}
	return n.Endpoint(addr)
}

// SourceOf returns pkt.Src's endpoint: no lookup on a delivered packet.
func (n *Network) SourceOf(pkt *Packet) *Endpoint { return n.resolved(pkt.src, pkt.Src) }

// Attach registers a node. Re-attaching an address replaces the previous
// node (used for failure injection: replacing a node with a black hole).
// Topology mutation: initialization or barrier context only.
func (n *Network) Attach(node Node) error {
	if node == nil || node.Address() == "" {
		return fmt.Errorf("%w: nil node or empty address", ErrNet)
	}
	n.Endpoint(node.Address()).node = node
	return nil
}

// Detach removes a node; packets in flight to it are dropped on arrival.
func (n *Network) Detach(addr Addr) {
	if e := n.intern(addr, false); e != nil {
		e.node = nil
	}
}

// SetAccess gives addr an access link: every link out of addr, and every
// link into it from an address without one, takes cfg. It is set once, and
// before any link touches addr, so no link ever changes shape. Topology
// mutation: initialization or barrier context only.
func (n *Network) SetAccess(addr Addr, cfg LinkConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if addr == "" {
		return fmt.Errorf("%w: SetAccess on an empty address", ErrNet)
	}
	e := n.Endpoint(addr)
	if e.access != nil || n.linked(e) {
		return fmt.Errorf("%w: SetAccess(%q): its access link is set once, before any link touches it", ErrNet, addr)
	}
	e.access = &cfg
	n.minLatency = min(n.minLatency, cfg.Latency)
	return nil
}

// linked reports whether any link starts or ends at e.
func (n *Network) linked(e *Endpoint) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.byName {
		if _, in := s.links.Get(e); in || (s == e && len(s.links.ents) > 0) {
			return true
		}
	}
	return false
}

// linkConfig is the shape a new src→dst link takes: src's access link,
// else dst's, else the fabric default. Either endpoint may be nil (never
// interned).
func (n *Network) linkConfig(src, dst *Endpoint) *LinkConfig {
	switch {
	case src != nil && src.access != nil:
		return src.access
	case dst != nil && dst.access != nil:
		return dst.access
	}
	return n.defCfg
}

// linkOn returns the directed link's runtime state, creating it on first
// use in the shape its endpoints give it. The stream and the hash are
// functions of the two names alone.
func (n *Network) linkOn(src, dst *Endpoint) *link {
	l, ok := src.links.Get(dst)
	if !ok {
		h := linkHash(src.addr, dst.addr)
		l = n.shards[src.shard].links.New(link{cfg: n.linkConfig(src, dst), rng: n.linkSrc.FastHashed(h),
			hash: h, dstShard: dst.shard, faultLoss: lossUnset})
		src.links.Put(dst, l)
	}
	return l
}

// linkHash is the stable directed-link hash used as arrival ordering key
// k1 and to seed the link's stream: a pure function of the endpoint names,
// identical for every shard count and every run.
func linkHash(src, dst Addr) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(src))
	_, _ = h.Write([]byte{'|'})
	_, _ = h.Write([]byte(dst))
	return h.Sum64()
}

// Send transmits the packet now.
func (n *Network) Send(pkt *Packet) { n.SendAfter(pkt, 0) }

// SendAfter transmits the packet as if Send were called d from now: the
// sender-side processing delay (a Dom0 output path) rides the send instead
// of a timer of its own. The packet's ID is assigned if zero. Delivery is
// scheduled on the destination shard's loop — directly for a same-shard
// destination, via the outbox (drained at the next barrier) otherwise.
// Lost packets are counted and dropped silently (loss recovery belongs to
// upper layers). A pool-owned packet (AllocPacket) is reclaimed by the
// fabric once delivered or lost.
//
// A link's loss and jitter draws, FIFO horizons and arrival keys follow the
// order of the calls, so that order must also be the order of departure:
// asking a link to depart a packet before its previous one panics. Senders
// that delay every packet of a link by the same d never do.
//
// Concurrency contract: a send may only be made from the source address's
// own shard (a node reacting to a delivery) or from coordinator/barrier
// context while all shards are parked.
func (n *Network) SendAfter(pkt *Packet, d sim.Time) {
	src, dst := n.resolved(pkt.src, pkt.Src), n.resolved(pkt.dst, pkt.Dst)
	pkt.src, pkt.dst = src, dst
	ks := src.shard
	sh := n.shards[ks]
	if pkt.ID == 0 {
		sh.nextID++
		pkt.ID = sh.idBase | sh.nextID
	}
	l := n.linkOn(src, dst)
	start := sh.loop.Now() + d
	if start < l.departed {
		panic(fmt.Sprintf("netsim: %s departs at %v, before the link's previous packet at %v", pkt, start, l.departed))
	}
	l.departed = start
	cfg := l.cfg
	loss := cfg.LossProb
	if l.faultLoss >= 0 {
		loss = l.faultLoss
	}
	// A partitioned link (fault.go) drops without a loss draw, so healing
	// resumes the RNG stream exactly where the fault found it.
	if l.partitioned || (loss > 0 && l.rng.Bool(loss)) {
		sh.kinds[sh.kindRow(pkt.Kind)].lost++
		sh.recycle(pkt)
		return
	}
	if l.nextFree > start {
		start = l.nextFree
	}
	var tx sim.Time
	if cfg.BandwidthBps > 0 {
		tx = sim.Time(int64(pkt.Size) * int64(sim.Second) / cfg.BandwidthBps)
	}
	l.nextFree = start + tx
	arrival := start + tx + cfg.Latency
	if cfg.JitterMax > 0 {
		arrival += l.rng.UniformDur(0, cfg.JitterMax)
	}
	// Links are FIFO (the paper's inter-node streams are TCP tunnels):
	// jitter never reorders packets within one directed link.
	if arrival < l.lastArr {
		arrival = l.lastArr
	}
	l.lastArr = arrival
	l.arrSeq++
	if l.dstShard == ks {
		row := sh.kindRow(pkt.Kind)
		sh.loop.AtArrivalTimer(arrival, sh.kinds[row].label, deliverTimer, n, pkt, deliverArg(ks, row), l.hash, l.arrSeq)
		return
	}
	sh.crossed++
	sh.outs[l.dstShard] = append(sh.outs[l.dstShard], inject{
		when: arrival, k1: l.hash, k2: l.arrSeq, pkt: pkt,
	})
}

// Exchange drains every cross-shard outbox, scheduling the parked
// deliveries on their destination shards' loops, then levels the packet
// pools. Coordinator barrier context only (all shards parked). The
// injection order is irrelevant to the schedule — the (when, k1, k2) key
// decides — but it is deterministic anyway: shard-index order, append
// order within a box.
func (n *Network) Exchange() {
	for _, src := range n.shards {
		for k, box := range src.outs {
			dst := n.shards[k]
			for _, in := range box {
				row := dst.kindRow(in.pkt.Kind)
				dst.loop.AtArrivalTimer(in.when, dst.kinds[row].label, deliverTimer, n, in.pkt, deliverArg(k, row), in.k1, in.k2)
			}
			clear(box)
			src.outs[k] = box[:0]
		}
	}
	n.levelPools()
}

// levelPools spreads the pooled packets evenly over the K shards: shard i
// keeps ⌊total/K⌋, plus one if i < total mod K, and the shards above that
// fill the ones below it. Which *Packet carries a send reaches no ID, key,
// draw or output, so this moves no result, only allocations.
func (n *Network) levelPools() {
	k := len(n.shards)
	total := 0
	for _, sh := range n.shards {
		total += len(sh.freePkts)
	}
	quota := func(i int) int { return (total + k - 1 - i) / k }
	d := 0 // the lowest shard that may still be above its quota
	for i, sh := range n.shards {
		for need := quota(i) - len(sh.freePkts); need > 0; {
			for len(n.shards[d].freePkts) <= quota(d) {
				d++
			}
			from := n.shards[d].freePkts
			cut := len(from) - min(need, len(from)-quota(d))
			sh.freePkts = append(sh.freePkts, from[cut:]...)
			clear(from[cut:])
			n.shards[d].freePkts = from[:cut]
			need -= len(from) - cut
		}
	}
}

// deliverArg packs a delivery's destination shard and that shard's row
// for the packet's kind into deliverTimer's argument.
func deliverArg(shard int, row uint64) uint64 { return uint64(shard) | row<<32 }

// deliverTimer is the fabric's typed delivery callback: hand the packet to
// the destination node (if still attached), count it in its kind's row,
// and reclaim pooled packets into the destination shard's pool (u is
// deliverArg's).
func deliverTimer(a, b any, u uint64) {
	n := a.(*Network)
	pkt := b.(*Packet)
	sh := n.shards[uint32(u)]
	if node := pkt.dst.node; node != nil {
		sh.kinds[u>>32].delivered++
		node.Deliver(pkt)
	} else {
		sh.kinds[u>>32].lost++
	}
	sh.recycle(pkt)
}

// Stats reports fabric counters and the fabric's footprint.
type Stats struct {
	// Delivered counts packets handed to an attached node; Lost counts
	// packets the loss model or a partition dropped and arrivals at a
	// detached address. Each is the sum of its column of ByKind.
	Delivered uint64
	Lost      uint64
	// ByKind splits them by packet kind, sorted by kind, one row per kind
	// with a packet delivered or lost.
	ByKind []KindStats
	// Endpoints counts interned addresses, and Links directed link
	// records. Neither ever falls: the fabric forgets no address.
	Endpoints int
	Links     int
}

// KindStats is one packet kind's row of Stats.
type KindStats struct {
	Kind      string
	Delivered uint64
	Lost      uint64
}

// Stats returns current fabric counters, summed across shards: the same
// for every partition. Barrier context only while a coordinator is driving
// the shards.
func (n *Network) Stats() Stats {
	var s Stats
	for _, sh := range n.shards {
		for _, kc := range sh.kinds {
			if kc.delivered == 0 && kc.lost == 0 {
				continue
			}
			s.Delivered += kc.delivered
			s.Lost += kc.lost
			i, found := slices.BinarySearchFunc(s.ByKind, kc.kind, func(r KindStats, k string) int { return strings.Compare(r.Kind, k) })
			if !found {
				s.ByKind = slices.Insert(s.ByKind, i, KindStats{Kind: kc.kind})
			}
			s.ByKind[i].Delivered += kc.delivered
			s.ByKind[i].Lost += kc.lost
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	s.Endpoints = len(n.byName)
	for _, e := range n.byName {
		s.Links += len(e.links.ents)
	}
	return s
}

// CrossShard returns the sends that crossed a shard (parked in an outbox
// for the next barrier), summed across shards. Unlike Stats it depends on
// the partition: it is what a machine → shard map is judged by. Barrier
// context only while a coordinator is driving the shards.
func (n *Network) CrossShard() uint64 {
	var c uint64
	for _, sh := range n.shards {
		c += sh.crossed
	}
	return c
}

// FuncNode adapts a function into a Node — handy for tests and simple
// endpoints.
type FuncNode struct {
	Addr Addr
	Fn   func(pkt *Packet)
}

var _ Node = (*FuncNode)(nil)

// Address implements Node.
func (f *FuncNode) Address() Addr { return f.Addr }

// Deliver implements Node.
func (f *FuncNode) Deliver(pkt *Packet) {
	if f.Fn != nil {
		f.Fn(pkt)
	}
}
