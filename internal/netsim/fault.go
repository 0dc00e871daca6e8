// Fabric fault injection: per-link loss overrides and partition toggles
// layered on the per-link runtime state. A link's shape is fixed when it is
// created (from its endpoints' access links), and these switches are the
// only per-pair mutation: they flip mid-run without disturbing the link's
// stream, so a fault window is deterministic for every shard count and
// leaves the link's jitter/loss draw sequence exactly where an un-faulted
// run of the same traffic would have left it when the fault clears. A fault
// on a pair that never carried traffic creates its link, in the shape its
// endpoints give it.
//
// Determinism: a partitioned link drops without consuming an RNG draw; a
// loss override redirects the probability fed to the link's own seeded
// stream. Both effects are functions of (link, send history, fault
// schedule) only — never of the shard partition.
//
// Concurrency contract: like all topology mutation, fault switches may
// only be flipped at initialization or from coordinator/barrier context
// (e.g. a control-loop event) while shard loops are parked.

package netsim

import "fmt"

// faultOn returns the directed pair's link runtime state for fault
// mutation, creating it (on the source's shard) if no traffic has flowed
// yet.
func (n *Network) faultOn(src, dst Addr) (*link, error) {
	if src == "" || dst == "" {
		return nil, fmt.Errorf("%w: fault on link %q→%q", ErrNet, src, dst)
	}
	return n.linkOn(n.Endpoint(src), n.Endpoint(dst)), nil
}

// InjectLoss overrides the directed link's loss probability: p in [0, 1]
// replaces the configured LossProb for subsequent sends; p < 0 clears the
// override, restoring the configured value. The link's RNG stream is not
// reset. Barrier context only.
func (n *Network) InjectLoss(src, dst Addr, p float64) error {
	if p > 1 {
		return fmt.Errorf("%w: loss probability %v on %q→%q", ErrNet, p, src, dst)
	}
	l, err := n.faultOn(src, dst)
	if err != nil {
		return err
	}
	if p < 0 {
		p = lossUnset
	}
	l.faultLoss = p
	return nil
}

// SetPartitioned cuts (or heals) the directed link: while partitioned,
// every send on the pair is dropped and counted, without consuming a loss
// draw — healing resumes the link's RNG stream exactly where the fault
// found it. Barrier context only.
func (n *Network) SetPartitioned(src, dst Addr, on bool) error {
	l, err := n.faultOn(src, dst)
	if err != nil {
		return err
	}
	l.partitioned = on
	return nil
}

// HealLink clears both fault switches (loss override and partition) on
// the directed link. Barrier context only.
func (n *Network) HealLink(src, dst Addr) error {
	l, err := n.faultOn(src, dst)
	if err != nil {
		return err
	}
	l.faultLoss = lossUnset
	l.partitioned = false
	return nil
}
