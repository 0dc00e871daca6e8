package vmm

import (
	"fmt"
	"slices"
	"sort"

	"stopwatch/internal/guest"
	"stopwatch/internal/seqwin"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// DeliveryPolicy selects how a NetDevice turns proposals into a delivery
// time. PolicyMedian is StopWatch; PolicyOwn models the prior-work
// replication designs the paper argues against (Sec. II: "all prior systems
// ... permit one replica to dictate timing-related events"), where each
// replica delivers at its own local timing — used only for ablations.
type DeliveryPolicy int

// Delivery policies.
const (
	PolicyMedian DeliveryPolicy = iota + 1
	PolicyOwn
)

// NetDevice is the StopWatch network device model for one guest replica
// (Fig. 3): it buffers inbound packets hidden from the guest, forms a
// proposed delivery time virt_lastexit+Δn, exchanges proposals with the
// peer replicas' device models, and hands the median to the runtime.
//
// The device reads its runtime's group view (Runtime.SetView) so a machine
// whose VMM died does not stall the median forever: when the cluster
// reconfigures the group, pending sequences are re-proposed among the live
// members and resolve on the live set (upper median for the degraded even
// counts), and proposals from dead members or earlier views are discarded.
// Each view change is identified by a monotonically increasing view number
// that the cluster installs in every live member in the same simulated
// instant, so the re-proposal round stays deterministic across replicas.
type NetDevice struct {
	rt       *Runtime
	replicas int    // total replica count (3, or 5 for the Sec. IX ablation)
	self     string // this replica's origin (host name) in the proposal map

	// Policy defaults to PolicyMedian.
	Policy DeliveryPolicy

	// pending holds the proposal state of every unresolved ingress sequence
	// seen so far. Everything below its Base has resolved (or predates this
	// device's join); a resolved sequence above an unseen one stays retired
	// in the window, so a straggler proposal for it is dropped instead of
	// resurrecting a state that could never resolve and would wedge
	// quiescence forever.
	pending seqwin.Window[propState]

	// SendProposal transmits this replica's proposal for an ingress
	// sequence number, under the given group view, to the peer device
	// models (wired by the cluster; an interface so the wiring needs no
	// per-replica closure).
	SendProposal ProposalSink
	// OnResolve observes each resolved delivery decision — the cluster
	// journals these for replica replacement (all replicas resolve
	// identical medians, so any replica's stream is authoritative).
	OnResolve ResolveSink

	proposed uint64
	resolved uint64

	staleDrops uint64 // proposals for already-resolved seqs
	dupDrops   uint64 // second proposal from one origin for one seq
	viewDrops  uint64 // proposals from an earlier view or a dead origin

	// Steady-state scratch, reused across packets so the per-resolution
	// hot path allocates nothing: freed inbound work items and the median
	// slice.
	freeWork   []*inboundWork
	medScratch []vtime.Virtual
	// votes is what the window's slots carve their vote arrays from.
	votes []propVote
}

// ProposalSink consumes a replica's delivery-time proposals.
type ProposalSink interface {
	SendProposal(view, seq uint64, v vtime.Virtual)
}

// ProposalSinkFunc adapts a function to ProposalSink (tests, experiments).
type ProposalSinkFunc func(view, seq uint64, v vtime.Virtual)

// SendProposal implements ProposalSink.
func (f ProposalSinkFunc) SendProposal(view, seq uint64, v vtime.Virtual) { f(view, seq, v) }

// ResolveSink consumes resolved delivery decisions (the determinism
// journal).
type ResolveSink interface {
	OnResolve(seq uint64, deliver vtime.Virtual, p guest.Payload)
}

// ResolveSinkFunc adapts a function to ResolveSink (tests, experiments).
type ResolveSinkFunc func(seq uint64, deliver vtime.Virtual, p guest.Payload)

// OnResolve implements ResolveSink.
func (f ResolveSinkFunc) OnResolve(seq uint64, deliver vtime.Virtual, p guest.Payload) {
	f(seq, deliver, p)
}

// propState accumulates one sequence's proposals, one slot per origin so a
// duplicated or replayed proposal from one peer can never displace (or
// stand in for) another's. Groups are 3 (or 5) wide: the slots are scanned,
// not hashed. States live inline in the device's window, and a slot's vote
// array is made once, at the group's width, for every sequence that will
// pass through it.
type propState struct {
	payload    guest.Payload
	hasPayload bool
	props      []propVote
	own        bool
	ownVirt    vtime.Virtual
	proposedAt sim.Time // loop time of this replica's own (last) proposal
}

type propVote struct {
	origin string
	v      vtime.Virtual
}

// vote returns origin's proposal.
func (st *propState) vote(origin string) (vtime.Virtual, bool) {
	for _, p := range st.props {
		if p.origin == origin {
			return p.v, true
		}
	}
	return 0, false
}

// inboundWork carries one inbound packet through the Dom0 processing-delay
// timer without a per-packet closure; items are pooled per device.
type inboundWork struct {
	seq uint64
	p   guest.Payload
}

// NewNetDevice builds the device model for a runtime participating in a
// group of `replicas` total replicas, and registers it with the runtime,
// whose group view it reads.
func NewNetDevice(rt *Runtime, replicas int) (*NetDevice, error) {
	if rt == nil {
		return nil, fmt.Errorf("%w: nil runtime", ErrVMM)
	}
	if replicas < 1 || replicas%2 == 0 {
		return nil, fmt.Errorf("%w: replica count %d must be odd", ErrVMM, replicas)
	}
	// Nothing is allocated here: a freshly wired device (guest admission is
	// itself a hot path under churn) allocates nothing until traffic
	// arrives. Then each buffer starts at the size the group fixes — the
	// slots' vote arrays carved eight at a time, the median scratch at the
	// group's width — or at a small constant, instead of doubling from one.
	nd := &NetDevice{
		rt:       rt,
		replicas: replicas,
		self:     rt.Host().Name(),
		Policy:   PolicyMedian,
		pending:  seqwin.New[propState](1),
	}
	rt.nd = nd
	return nd, nil
}

// HandleInbound accepts a packet replicated by the ingress node. After the
// host's device-model processing delay, the VMM reads the guest's virtual
// time as of its last VM exit, adds Δn, and sends the proposal to its peers.
func (nd *NetDevice) HandleInbound(seq uint64, p guest.Payload) {
	host := nd.rt.Host()
	if host.Failed() {
		return // a dead VMM's device model processes nothing
	}
	if nd.pending.Done(seq) {
		nd.staleDrops++
		return
	}
	host.ioBegin()
	var w *inboundWork
	if k := len(nd.freeWork); k > 0 {
		w = nd.freeWork[k-1]
		nd.freeWork[k-1] = nil
		nd.freeWork = nd.freeWork[:k-1]
	} else {
		w = &inboundWork{}
	}
	w.seq, w.p = seq, p
	host.Loop().AfterTimer(host.ioDelay(), "netdev:process", processTimer, nd, w, 0)
}

// processTimer completes the Dom0 device-model processing delay for one
// inbound packet: record the payload, form this replica's proposal, and try
// to resolve.
func processTimer(a, b any, _ uint64) {
	nd := a.(*NetDevice)
	w := b.(*inboundWork)
	seq, p := w.seq, w.p
	w.p = guest.Payload{}
	if nd.freeWork == nil {
		nd.freeWork = make([]*inboundWork, 0, 8)
	}
	nd.freeWork = append(nd.freeWork, w)
	host := nd.rt.Host()
	host.ioEnd()
	if host.Failed() {
		// The host died while the packet was in Dom0: a dead VMM finishes
		// nothing, so no decision it could reach lands in the journal.
		return
	}
	st := nd.state(seq)
	if st == nil {
		nd.staleDrops++
		return
	}
	if !st.hasPayload {
		st.payload = p
		st.hasPayload = true
	}
	if !st.own {
		st.own = true
		nd.propose(seq, st)
	}
	nd.maybeResolve(seq, st)
}

// propose forms this replica's delivery-time proposal for seq at the current
// virtual time and sends it to the peers under the current view.
func (nd *NetDevice) propose(seq uint64, st *propState) {
	prop := nd.rt.VirtAtLastExit() + nd.rt.cfg.DeltaN
	st.ownVirt = prop
	st.proposedAt = nd.rt.Host().Loop().Now()
	st.props = append(st.props, propVote{nd.self, prop})
	nd.proposed++
	if nd.SendProposal != nil {
		nd.SendProposal.SendProposal(nd.rt.view, seq, prop)
	}
}

// HandlePeerProposal records a proposal from the peer device model on host
// `origin` under group view `view`. Stragglers for already-resolved
// sequences, duplicates from one origin, and proposals from dead members or
// stale views are dropped.
func (nd *NetDevice) HandlePeerProposal(origin string, view, seq uint64, v vtime.Virtual) {
	if nd.pending.Done(seq) {
		nd.staleDrops++
		return
	}
	if view != nd.rt.view || !nd.rt.inView(origin) {
		nd.viewDrops++
		return
	}
	st := nd.state(seq)
	if st == nil {
		nd.staleDrops++
		return
	}
	if _, dup := st.vote(origin); dup {
		nd.dupDrops++
		return
	}
	st.props = append(st.props, propVote{origin, v})
	nd.maybeResolve(seq, st)
}

// repropose re-proposes every pending sequence from scratch under a view
// Runtime.SetView has just installed — the proposals of the previous view
// are discarded wholesale, so all live members resolve each sequence from
// the same proposal multiset, and the fresh Δn offset keeps the agreed
// delivery time in every live replica's future (no synchrony divergence
// from the stall window).
func (nd *NetDevice) repropose() {
	for seq, st := range nd.pending.All() {
		st.props = st.props[:0]
		if st.own {
			nd.propose(seq, st)
		}
		nd.maybeResolve(seq, st)
	}
}

// View returns the current group-view number.
func (nd *NetDevice) View() uint64 { return nd.rt.view }

// liveCount returns the proposal count a resolution needs: the live-set
// size under an installed view, the full group otherwise.
func (nd *NetDevice) liveCount() int {
	if nd.rt.live != nil {
		return len(nd.rt.live)
	}
	return nd.replicas
}

// state returns seq's proposal state, opening it if the sequence is new. It
// returns nil for a resolved sequence and for one further above the
// watermark than any ingress can be (seqwin.MaxSpan).
func (nd *NetDevice) state(seq uint64) *propState {
	st, fresh := nd.pending.Open(seq)
	if fresh {
		votes := st.props[:0]
		if votes == nil {
			if len(nd.votes) < nd.replicas {
				nd.votes = make([]propVote, 8*nd.replicas) // a window grown once from seqwin's 4 slots
			}
			// Three-index: an append past the group's width reallocates
			// instead of writing into the next slot's votes.
			votes = nd.votes[:0:nd.replicas]
			nd.votes = nd.votes[nd.replicas:]
		}
		*st = propState{props: votes}
	}
	return st
}

func (nd *NetDevice) maybeResolve(seq uint64, st *propState) {
	if !st.hasPayload || !st.own {
		return
	}
	var deliver vtime.Virtual
	switch nd.Policy {
	case PolicyOwn:
		// Prior-work ablation: the local replica dictates its own timing.
		deliver = st.ownVirt
	default:
		if len(st.props) < nd.liveCount() {
			return
		}
		vs := nd.medScratch[:0]
		if vs == nil {
			vs = make([]vtime.Virtual, 0, nd.replicas)
		}
		for _, p := range st.props {
			vs = append(vs, p.v)
		}
		deliver = groupMedianInPlace(vs)
		nd.medScratch = vs[:0]
	}
	nd.resolved++
	if st.own {
		h := nd.rt.Host()
		h.propLatency.Observe(int64(h.Loop().Now() - st.proposedAt))
	}
	nd.finishResolve(seq, st, deliver)
}

// finishResolve commits a delivery decision for seq: watermark, journal hook
// and runtime delivery. Shared by the median path and the survivor
// exchange's adoption of a journaled decision.
func (nd *NetDevice) finishResolve(seq uint64, st *propState, deliver vtime.Virtual) {
	payload := st.payload
	st.payload = guest.Payload{} // the slot outlives the sequence; its data must not
	nd.pending.Retire(seq)
	if nd.OnResolve != nil {
		nd.OnResolve.OnResolve(seq, deliver, payload)
	}
	nd.rt.EnqueueNetDelivery(seq, deliver, payload)
}

// PrimeResolved declares every sequence <= seq already handled — how a
// replacement replica's device joins an in-progress ingress stream without
// treating the stream's history (resolved by its predecessors and replayed
// from the journal) as forever-pending.
func (nd *NetDevice) PrimeResolved(seq uint64) { nd.pending.SkipTo(seq + 1) }

// MissingProposals names the group members whose proposal for a pending
// sequence has not arrived — what a failure detector reads when a
// sequence's stall deadline passes, to turn "this sequence stalled" into
// "these machines are silent". It requires an installed view (the cluster
// installs one at every deploy and reconfiguration); without one the device
// knows only peer counts, not membership, and reports nothing. Resolved or
// unknown sequences report nothing. The result is sorted for determinism.
func (nd *NetDevice) MissingProposals(seq uint64) []string {
	st := nd.pending.Get(seq)
	if nd.rt.live == nil || st == nil {
		return nil
	}
	var missing []string
	for _, origin := range nd.rt.live {
		if _, have := st.vote(origin); !have {
			missing = append(missing, origin)
		}
	}
	sort.Strings(missing)
	return missing
}

// Pending returns the number of unresolved inbound packets (tests).
func (nd *NetDevice) Pending() int { return nd.pending.Len() }

// Proposed and Resolved report protocol counters.
func (nd *NetDevice) Proposed() uint64 { return nd.proposed }

// Resolved reports how many packets reached a median decision here.
func (nd *NetDevice) Resolved() uint64 { return nd.resolved }

// StaleDrops reports proposals dropped for already-resolved sequences.
func (nd *NetDevice) StaleDrops() uint64 { return nd.staleDrops }

// DuplicateDrops reports second-proposal-per-origin drops.
func (nd *NetDevice) DuplicateDrops() uint64 { return nd.dupDrops }

// ViewDrops reports stale-view and dead-origin proposal drops.
func (nd *NetDevice) ViewDrops() uint64 { return nd.viewDrops }

// GroupMedian returns the delivery time agreed from a proposal set: the
// median for the odd counts of a healthy group, and the upper median (the
// later of the two middle values) for the even counts of a degraded group —
// the deterministic 2-of-3 tie-rule, biased into the future and so away
// from synchrony violations. It panics on an empty set; callers guarantee
// at least the local proposal is present.
func GroupMedian(vs []vtime.Virtual) vtime.Virtual {
	s := make([]vtime.Virtual, len(vs))
	copy(s, vs)
	return groupMedianInPlace(s)
}

// groupMedianInPlace is GroupMedian over a caller-owned scratch slice: it
// sorts in place and allocates nothing (slices.Sort, unlike sort.Slice,
// needs no closure or reflection scratch).
func groupMedianInPlace(s []vtime.Virtual) vtime.Virtual {
	slices.Sort(s)
	return s[len(s)/2]
}
