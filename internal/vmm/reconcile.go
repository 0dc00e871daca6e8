package vmm

// The survivor exchange of a crash view change. On a lossy fabric a crashed
// VMM's in-flight proposals can be partially delivered: one survivor
// resolves a 3-median with the dead member's vote while another never sees
// it. After the view commits, the wedged survivor re-proposes the sequence
// and the resolved one stale-drops the re-proposal — the group diverges
// permanently. Before the view commits, ReconcileSurvivors therefore brings
// every survivor level with what any of them holds:
//
//   - Dead votes: a survivor that lost the dead member's proposal for a
//     pending sequence merges a peer's copy and resolves the exact 3-median
//     it would have reached had the fabric not dropped the packet.
//   - Decisions: a survivor that holds a sequence's payload but has not
//     resolved it adopts the guest's journaled decision verbatim. The
//     journal is the one record of agreed delivery times; a dead VMM writes
//     nothing to it (processTimer), so every decision there was made by a
//     live replica with every live member's vote.
//
// Sequences nobody resolved and nobody holds a dead vote for are left to
// the view change's re-proposal round.

// ReconcileSurvivors runs the survivor exchange for one guest whose member on
// host dead crashed: survivors are its running replicas' devices, which share
// one view at the settle instant, and j is the guest's journal. It returns
// the sequences repaired, dead votes merged plus decisions adopted; a second
// call repairs nothing.
func ReconcileSurvivors(survivors []*NetDevice, dead string, j *Journal) int {
	repairs := 0
	// A member proposes a sequence once per view and the survivors share
	// one view, so every holder's copy of a dead vote is the same vote and
	// the order of merging cannot matter.
	for _, from := range survivors {
		for seq, held := range from.pending.All() {
			v, ok := held.vote(dead)
			if !ok {
				continue
			}
			for _, nd := range survivors {
				if nd == from {
					continue
				}
				st := nd.state(seq)
				if st == nil {
					continue // resolved here, or no sequence this device could be asked about
				}
				if _, have := st.vote(dead); have {
					continue
				}
				st.props = append(st.props, propVote{dead, v})
				repairs++
				nd.maybeResolve(seq, st)
			}
		}
	}
	for _, nd := range survivors {
		for seq, st := range nd.pending.All() {
			if deliver, ok := j.Decision(seq); ok && st.hasPayload {
				nd.resolved++
				nd.finishResolve(seq, st, deliver)
				repairs++
			}
		}
	}
	return repairs
}
