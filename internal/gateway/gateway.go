// Package gateway implements StopWatch's cloud edge: the ingress node that
// replicates every inbound guest packet to the guest's replica hosts
// (Sec. V), and the egress node that forwards each guest output packet when
// its median copy arrives (the second of three) — the median emission
// timing of the replicas (Sec. VI).
//
// The edge is per guest ("there need not be only one" such node): a guest's
// service address, ingress stream and egress node are fabric nodes of their
// own on its service address's shard, sharing no state with another guest's.
package gateway

import (
	"errors"
	"fmt"

	"stopwatch/internal/multicast"
	"stopwatch/internal/netsim"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
)

// ErrGateway reports gateway configuration errors.
var ErrGateway = errors.New("gateway: invalid")

// ServiceAddr returns the public fabric address of a guest VM: the address
// clients talk to, owned by the ingress on the inbound side and used as the
// source of egress-forwarded packets.
func ServiceAddr(guestID string) netsim.Addr {
	return netsim.Addr("svc:" + guestID)
}

// Ingress replicates packets destined for guests to their replica hosts via
// reliable multicast. One ingress can serve any number of guests; a cloud
// can run several ingresses (the paper: "there need not be only one").
type Ingress struct {
	net  *netsim.Network
	addr netsim.Addr

	guests map[string]*ingressGuest

	// replicated counts unregistered guests' packets; a registered guest
	// counts its own, on its shard.
	replicated uint64
}

// ingressGuest is one guest's ingress wiring and the fabric node of its
// public service address: client packets reach it without a lookup.
type ingressGuest struct {
	id   string
	addr netsim.Addr
	snd  *multicast.Sender
	// paused buffers client packets in held instead of replicating them —
	// the quiesce barrier replica replacement rewires the group behind.
	paused     bool
	held       []*netsim.Packet
	replicated uint64
}

func (g *ingressGuest) Address() netsim.Addr { return g.addr }

func (g *ingressGuest) Deliver(p *netsim.Packet) {
	if g.paused {
		g.held = append(g.held, p.Clone())
		return
	}
	g.replicated++
	g.snd.Multicast("swin", p.Size, netsim.PacketBody{
		Kind:      netsim.BodyInbound,
		GuestID:   g.id,
		ClientSrc: p.Src,
		Size:      p.Size,
		Data:      p.Payload,
	})
}

// NewIngress creates an ingress node rooted at addr. loop is shard 0's; a
// guest's stream runs on its own shard's.
func NewIngress(net *netsim.Network, loop *sim.Loop, addr netsim.Addr) (*Ingress, error) {
	if net == nil || loop == nil || addr == "" {
		return nil, fmt.Errorf("%w: ingress needs net, loop, addr", ErrGateway)
	}
	return &Ingress{
		net:    net,
		addr:   addr,
		guests: make(map[string]*ingressGuest),
	}, nil
}

// SourceAddr returns the per-guest multicast source address, which receivers
// use to identify the stream.
func (in *Ingress) SourceAddr(guestID string) netsim.Addr {
	return netsim.Addr(string(in.addr) + "/" + guestID)
}

// RegisterGuest wires a guest: client packets to ServiceAddr(guestID) are
// replicated to the given replica host (Dom0) addresses. The stream runs on
// the service address's shard.
func (in *Ingress) RegisterGuest(guestID string, replicaHosts []netsim.Addr) error {
	if guestID == "" || len(replicaHosts) == 0 {
		return fmt.Errorf("%w: RegisterGuest(%q, %v)", ErrGateway, guestID, replicaHosts)
	}
	if _, dup := in.guests[guestID]; dup {
		return fmt.Errorf("%w: guest %q already registered", ErrGateway, guestID)
	}
	svc, src := ServiceAddr(guestID), in.SourceAddr(guestID)
	home, _ := in.net.Endpoint(svc).Home()
	if err := in.net.AssignShard(src, home); err != nil {
		return err
	}
	snd, err := multicast.NewSender(in.net, in.net.ShardLoop(home), multicast.SenderConfig{
		Src:   src,
		Group: replicaHosts,
	})
	if err != nil {
		return err
	}
	g := &ingressGuest{id: guestID, addr: svc, snd: snd}
	in.guests[guestID] = g
	// NAKs for this stream come back to the stream source address: the
	// sender is its own fabric node.
	if err := in.net.Attach(snd); err != nil {
		return err
	}
	// Client traffic to the guest's public address lands here.
	return in.net.Attach(g)
}

// guest returns a registered guest's wiring.
func (in *Ingress) guest(guestID string) (*ingressGuest, error) {
	g, ok := in.guests[guestID]
	if !ok {
		return nil, fmt.Errorf("%w: guest %q not registered", ErrGateway, guestID)
	}
	return g, nil
}

// Pause starts buffering a guest's inbound traffic instead of replicating
// it: the first half of the make-before-break barrier used while a replica
// group is reconfigured. Pausing an already-paused guest is a no-op.
func (in *Ingress) Pause(guestID string) {
	if g, ok := in.guests[guestID]; ok {
		g.paused = true
	}
}

// Paused reports whether the guest's inbound stream is paused.
func (in *Ingress) Paused(guestID string) bool {
	g, ok := in.guests[guestID]
	return ok && g.paused
}

// Resume ends a guest's pause, flushing the buffered packets (in arrival
// order) to the — possibly reconfigured — replica group.
func (in *Ingress) Resume(guestID string) {
	g, ok := in.guests[guestID]
	if !ok || !g.paused {
		return
	}
	g.paused = false
	held := g.held
	g.held = nil
	for _, p := range held {
		g.Deliver(p)
	}
}

// UpdateGroup repoints a guest's replication group — the rewire step of
// replica replacement. The joining member must be primed with NextSeq.
func (in *Ingress) UpdateGroup(guestID string, replicaHosts []netsim.Addr) error {
	g, err := in.guest(guestID)
	if err != nil {
		return err
	}
	return g.snd.SetGroup(replicaHosts)
}

// NextSeq returns the next stream sequence for the guest's ingress
// multicast — what a joining receiver primes with.
func (in *Ingress) NextSeq(guestID string) (uint64, error) {
	g, err := in.guest(guestID)
	if err != nil {
		return 0, err
	}
	return g.snd.NextSeq(), nil
}

// Group returns the guest's current replication group (replica Dom0
// addresses) — the membership audit for group reconfiguration: a dead
// machine's Dom0 must leave the group, a replacement's must join it.
func (in *Ingress) Group(guestID string) ([]netsim.Addr, error) {
	g, err := in.guest(guestID)
	if err != nil {
		return nil, err
	}
	return g.snd.Group(), nil
}

// UnregisterGuest tears down a guest's ingress wiring: the public service
// address and the stream source detach from the fabric, and buffered
// paused traffic is dropped. The guest id becomes reusable.
func (in *Ingress) UnregisterGuest(guestID string) error {
	g, err := in.guest(guestID)
	if err != nil {
		return err
	}
	g.snd.Close()
	in.replicated += g.replicated
	delete(in.guests, guestID)
	in.net.Detach(g.addr)
	in.net.Detach(in.SourceAddr(guestID))
	return nil
}

// Replicated reports how many client packets were replicated.
func (in *Ingress) Replicated() uint64 {
	n := in.replicated
	for _, g := range in.guests {
		n += g.replicated
	}
	return n
}

// Egress forwards guest outputs at the median timing: each replica tunnels
// its copy of every output packet to its guest's node, GuestAddr; the median
// copy to arrive (the second of three) is forwarded to the true destination,
// later copies are absorbed. The shared address, Addr, is a front door: it
// hands each copy on to the node of the guest the copy names.
type Egress struct {
	net *netsim.Network
	// ep is the front door's endpoint, on shard 0.
	ep *netsim.Endpoint

	// guests holds every guest seen, departed ones too.
	guests map[string]*guestEgress
	// replicas is the group size of a guest RegisterGuest never announced.
	replicas int

	// OnForward observes forwarded packets (external-observer experiments).
	// It runs on the guest's shard (or at a barrier, from SetLiveReplicas):
	// with several shards, calls for different guests may run at once.
	OnForward func(guestID string, seq uint64, at sim.Time)
}

// NewEgress creates an egress node. replicas is the group size of a guest
// whose copies reach the front door before RegisterGuest announces it: it
// forwards on the median copy, replicas/2+1. loop is shard 0's, where the
// front door runs.
func NewEgress(net *netsim.Network, loop *sim.Loop, addr netsim.Addr, replicas int) (*Egress, error) {
	if net == nil || loop == nil || addr == "" {
		return nil, fmt.Errorf("%w: egress needs net, loop, addr", ErrGateway)
	}
	if replicas < 1 || replicas%2 == 0 {
		return nil, fmt.Errorf("%w: egress replica count %d must be odd", ErrGateway, replicas)
	}
	e := &Egress{
		net:      net,
		ep:       net.Endpoint(addr),
		guests:   make(map[string]*guestEgress),
		replicas: replicas,
	}
	if err := net.Attach(&netsim.FuncNode{Addr: addr, Fn: e.deliver}); err != nil {
		return nil, err
	}
	return e, nil
}

// Addr returns the egress front door's fabric address.
func (e *Egress) Addr() netsim.Addr { return e.ep.Addr() }

// GuestAddr returns a guest's egress node address, which replicas tunnel to.
func (e *Egress) GuestAddr(guestID string) netsim.Addr {
	return netsim.Addr(string(e.Addr()) + "/" + guestID)
}

// copyGroup counts one output packet's tunnel arrivals until it is
// forwarded. The packet fields are kept (all copies are identical — that is
// what lockstep means) so a group made eligible by a later view shrink can
// still be flushed.
type copyGroup struct {
	n       int
	origDst netsim.Addr
	size    int
	data    any
}

// guestEgress is one guest's egress node and state. A copy group is open
// from its first copy until it is forwarded: an open group is an unforwarded
// one, and the retired slot it leaves absorbs the later copies instead of
// letting them resurrect it. Output sequences are contiguous and forward
// almost in order, so steady-state output traffic allocates nothing.
type guestEgress struct {
	e    *Egress
	id   string
	ep   *netsim.Endpoint // GuestAddr(id)'s
	loop *sim.Loop        // its shard's
	// svc is ServiceAddr(id) resolved: forwarded packets leave from it.
	svc *netsim.Endpoint
	// size is the guest's group size (RegisterGuest), and live the expected
	// copy count: size, or fewer while the group is degraded — the
	// egress-side mirror of the device models' live view. The median copy,
	// live/2+1, forwards.
	size, live int
	groups     seqwin.Window[copyGroup]
	// gone ends a departed guest's tombstone (DropGuest).
	gone      sim.Time
	forwarded uint64
}

func (gr *guestEgress) Address() netsim.Addr { return gr.ep.Addr() }

// Deliver counts one tunnelled copy, whichever way it came.
func (gr *guestEgress) Deliver(p *netsim.Packet) {
	if p.Body.Kind != netsim.BodyEgress {
		return
	}
	if gr.loop.Now() < gr.gone {
		// Sent before its guest left, arriving after: with the guest's
		// windows gone the copy would open a group nothing ever closes.
		return
	}
	seq := p.Body.Seq
	g, fresh := gr.groups.Open(seq)
	if g == nil {
		// A later copy of a forwarded group, or a sequence no guest can be
		// this far ahead with: the copy can only be absorbed.
		return
	}
	if fresh {
		*g = copyGroup{origDst: p.Body.OrigDst, size: p.Body.Size, data: p.Body.Data}
	}
	g.n++
	if g.n >= gr.live/2+1 {
		gr.forward(seq, g)
	}
}

// deliver is the front door, on shard 0: it hands each copy on to its
// guest's node over the fabric, so that the node counts and forwards it on
// the guest's own shard. A guest nobody announced exists from its first copy
// on.
func (e *Egress) deliver(p *netsim.Packet) {
	if p.Body.Kind != netsim.BodyEgress {
		return
	}
	gr, err := e.guest(p.Body.GuestID)
	if err != nil {
		return
	}
	q := e.net.AllocTo(e.ep, gr.ep, p.Size, p.Kind, p.Payload)
	q.Body = p.Body
	e.net.Send(q)
}

// guest returns the guest's egress node, attaching it on first use on its
// service address's shard.
func (e *Egress) guest(guestID string) (*guestEgress, error) {
	if gr, ok := e.guests[guestID]; ok {
		return gr, nil
	}
	svc := e.net.Endpoint(ServiceAddr(guestID))
	home, _ := svc.Home()
	gr := &guestEgress{e: e, id: guestID, ep: e.net.Endpoint(e.GuestAddr(guestID)), loop: e.net.ShardLoop(home),
		svc: svc, size: e.replicas, live: e.replicas, groups: seqwin.New[copyGroup](1)}
	if err := e.net.AssignShard(gr.ep.Addr(), home); err != nil {
		return nil, err
	}
	_ = e.net.Attach(gr) // refuses only a nil node or an empty address
	e.guests[guestID] = gr
	return gr, nil
}

// RegisterGuest announces a deployment of guestID with a group of replicas
// replicas: its copies forward at the median, replicas/2+1, and a tombstone
// its id's last tenant left (DropGuest) is lifted.
func (e *Egress) RegisterGuest(guestID string, replicas int) error {
	if replicas < 1 || replicas%2 == 0 {
		return fmt.Errorf("%w: guest %q replica count %d must be odd", ErrGateway, guestID, replicas)
	}
	gr, err := e.guest(guestID)
	if err != nil {
		return err
	}
	gr.gone, gr.size, gr.live = 0, replicas, replicas
	return nil
}

// forward sends a group's packet to its true destination and retires the
// group: whatever copies are still to come, in whatever view, are absorbed.
func (gr *guestEgress) forward(seq uint64, g *copyGroup) {
	e := gr.e
	gr.forwarded++
	if e.OnForward != nil {
		e.OnForward(gr.id, seq, gr.loop.Now())
	}
	e.net.Send(e.net.AllocTo(gr.svc, e.net.Endpoint(g.origDst), g.size, "guest:data", g.data))
	g.data = nil
	gr.groups.Retire(seq)
}

// SetLiveReplicas installs a guest's live replica count — the egress-side
// mirror of the device models' live-group view, kept by the cluster's group
// reconciliation. While degraded to n live replicas the guest's output is
// forwarded at copy n/2+1: the later of a surviving pair's two emissions
// (the upper-median bias the delivery side also uses), and the sole copy of
// a single survivor — whose output would otherwise wait forever for a
// second emission. n may not exceed the guest's group size (RegisterGuest).
//
// Pending groups made eligible by a shrink are flushed immediately, in
// sequence order: a packet whose counted copies all came from now-dead
// replicas will see no further emission, so its eligibility can only be
// acted on here.
func (e *Egress) SetLiveReplicas(guestID string, n int) error {
	gr, err := e.guest(guestID)
	if err != nil {
		return err
	}
	if n < 1 || n > gr.size {
		return fmt.Errorf("%w: guest %q live replica count %d of %d", ErrGateway, guestID, n, gr.size)
	}
	gr.live = n
	for seq, g := range gr.groups.All() {
		if g.n >= n/2+1 {
			gr.forward(seq, g)
		}
	}
	return nil
}

// Forwarded reports packets forwarded to their destinations.
func (e *Egress) Forwarded() uint64 {
	var n uint64
	for _, gr := range e.guests {
		n += gr.forwarded
	}
	return n
}

// departedFor is how long a departed guest's tombstone stands: longer than
// any tunnel flight (a copy leaves its Dom0 one output delay after the
// guest's send and crosses one fabric link — well under a millisecond at the
// shipped configurations), and the interval the control plane already gives
// in-flight fabric traffic to settle in (its drain window).
const departedFor = 50 * sim.Millisecond

// DropGuest discards the copy-counting and live-view state of an evicted
// guest so a later tenant reusing the id starts from a clean slate, and
// tombstones its node: for departedFor it absorbs the copies its stopped
// replicas still had in the tunnel, unless RegisterGuest deploys the id
// again. The node stays attached.
func (e *Egress) DropGuest(guestID string) {
	if gr, err := e.guest(guestID); err == nil {
		gr.size, gr.live, gr.groups, gr.gone = e.replicas, e.replicas, seqwin.New[copyGroup](1), gr.loop.Now()+departedFor
	}
}

// PendingGroups reports the open copy groups: output sequences that have
// NOT yet been forwarded — packets an external client is still waiting for.
func (e *Egress) PendingGroups() int {
	n := 0
	for _, gr := range e.guests {
		n += gr.groups.Len()
	}
	return n
}

// StuckBelowForward is PendingGroups: a group ends when it is forwarded, so
// every open group is below its forward threshold.
func (e *Egress) StuckBelowForward() int { return e.PendingGroups() }
