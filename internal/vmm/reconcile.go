package vmm

// Pre-view-commit reconcile protocol state. On a lossy fabric a crashed
// VMM's in-flight proposals can be partially delivered: one survivor
// resolves a 3-median with the dead member's vote while the other never
// sees it. After the view commits, the wedged survivor re-proposes the
// sequence and the resolved one stale-drops the re-proposal — the group
// diverges permanently. Before committing a new live view, each survivor
// therefore exports what it knows and imports what its peers knew:
//
//   - Resolutions: the device's recent (seq, deliver) decisions. A peer
//     that holds the payload but never resolved the sequence adopts the
//     decision verbatim; a peer whose payload has not arrived yet stashes
//     it (forced) and delivers on arrival without proposing.
//   - DeadVotes: proposals this survivor holds *from the dead origin* for
//     still-pending sequences. A peer that lost the dead member's vote can
//     merge it and resolve the exact 3-median it would have reached had
//     the fabric not dropped the packet.
//
// Sequences nobody resolved and nobody holds a dead vote for are left to
// the view change's re-proposal round, exactly as before. Imports are
// idempotent and strictly fenced by view: a repeated or stale export is a
// no-op.

import (
	"sort"

	"stopwatch/internal/vtime"
)

// resRingCap bounds the resolution ring. The survivor exchange only needs
// decisions from the failure window (proposals in flight at the crash,
// exchanged 5 ms later); 64 covers that with a wide margin at any modeled
// rate.
const resRingCap = 64

// resolvedRec is one retained delivery decision.
type resolvedRec struct {
	seq     uint64
	deliver vtime.Virtual
}

// ReconcileEntry is one (seq, virt) pair of a reconcile export: a resolved
// delivery decision, or the dead origin's pending vote.
type ReconcileEntry struct {
	Seq  uint64
	Virt vtime.Virtual
}

// ReconcileExport is one survivor's contribution to a pre-view-commit
// reconcile round.
type ReconcileExport struct {
	// Origin is the exporting replica's host name; View the group view the
	// export was taken under (imports from any other view are dropped).
	Origin string
	View   uint64
	// DeadOrigin names the crashed member whose votes DeadVotes carries.
	DeadOrigin string
	// Resolutions are the exporter's retained delivery decisions, seq-sorted.
	Resolutions []ReconcileEntry
	// DeadVotes are the dead origin's proposals the exporter still holds
	// for pending sequences, seq-sorted.
	DeadVotes []ReconcileEntry
}

// ExportReconcile snapshots this device's reconcile contribution for a
// round triggered by deadOrigin's crash. Entries are seq-sorted: the
// resolution ring is in resolution order and is sorted here; the pending
// window reads in sequence order as it is.
func (nd *NetDevice) ExportReconcile(deadOrigin string) ReconcileExport {
	x := ReconcileExport{
		Origin:     nd.self,
		View:       nd.view,
		DeadOrigin: deadOrigin,
	}
	for _, r := range nd.resRing {
		if r.seq != 0 {
			x.Resolutions = append(x.Resolutions, ReconcileEntry{Seq: r.seq, Virt: r.deliver})
		}
	}
	sort.Slice(x.Resolutions, func(i, j int) bool { return x.Resolutions[i].Seq < x.Resolutions[j].Seq })
	for seq, st := range nd.pending.All() {
		if v, ok := st.vote(deadOrigin); ok {
			x.DeadVotes = append(x.DeadVotes, ReconcileEntry{Seq: seq, Virt: v})
		}
	}
	return x
}

// ImportReconcile merges a peer's reconcile export into this device and
// returns the number of sequences it repaired (decisions adopted or
// stashed, dead votes merged). Imports are idempotent: an export applied
// twice — or after its information arrived another way — repairs nothing
// further. Exports from another view, from this device itself, or from an
// origin outside the live set are rejected outright.
func (nd *NetDevice) ImportReconcile(x ReconcileExport) int {
	if x.View != nd.view || x.Origin == nd.self {
		return 0
	}
	if nd.live != nil && !nd.liveHas(x.Origin) {
		return 0
	}
	repairs := 0
	for _, e := range x.Resolutions {
		if nd.pending.Done(e.Seq) {
			continue
		}
		if _, dup := nd.forced[e.Seq]; dup {
			continue
		}
		if st := nd.pending.Get(e.Seq); st != nil && st.hasPayload {
			nd.adoptResolution(e.Seq, st, e.Virt)
		} else {
			if nd.forced == nil {
				nd.forced = make(map[uint64]vtime.Virtual)
			}
			nd.forced[e.Seq] = e.Virt
		}
		repairs++
	}
	for _, e := range x.DeadVotes {
		if _, dup := nd.forced[e.Seq]; dup {
			continue
		}
		st := nd.state(e.Seq)
		if st == nil {
			continue // resolved here, or no sequence this device could be asked about
		}
		if _, have := st.vote(x.DeadOrigin); have {
			continue
		}
		st.props = append(st.props, propVote{x.DeadOrigin, e.Virt})
		repairs++
		nd.maybeResolve(e.Seq, st)
	}
	return repairs
}

// ForcedPending reports adopted decisions still awaiting their payload
// (tests).
func (nd *NetDevice) ForcedPending() int { return len(nd.forced) }
