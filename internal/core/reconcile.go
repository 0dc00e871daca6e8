package core

// The pre-view-commit survivor reconcile round. When a machine crashes on a
// lossy fabric, its in-flight proposals may have been partially delivered: one survivor resolved a 3-median with the dead
// member's vote while another never saw it and would wedge after the view
// change (the resolved survivor stale-drops the re-proposal). Before the
// control plane commits the post-crash view, every affected guest's
// survivors therefore exchange reconcile exports over the real (lossy)
// fabric — each live NetDevice's resolved-seq ring plus the dead origin's
// pending votes — with bounded per-pair timeout/retry/backoff, and the
// view commits only once every exchange is acknowledged or out of budget.
//
// Concurrency follows the cluster's control-before-data discipline:
//   - Exports are built and sent from control-loop events (all shards
//     parked at that instant, so reading any replica's device is safe).
//   - Imports and acks run as ordinary shard delivery events on the
//     receiving host's loop, touching only that shard's state; they record
//     (when, session, pair) into per-shard queues.
//   - The coordinator barrier drains the queues merge-sorted by timestamp
//     (drainReconcile, composed with drainStalls), completes pairs and
//     sessions, and fires the control plane's commit gate — the same
//     pattern the stall detector uses.
//
// Every reconcile packet travels src "rcl:<host>" → dst "dom0:<host>" on
// fresh fabric links whose seeded jitter/loss streams are label-derived,
// so enabling the round never perturbs the schedule of existing links: a
// loss-free run's op-log digest is byte-identical with the round on or off.

import (
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/vmm"
)

const (
	// rclSettle delays the first export past the crash instant so the dead
	// VMM's already-in-flight proposals land everywhere first (the export
	// then reflects every vote the fabric was going to deliver anyway).
	rclSettle = 5 * sim.Millisecond
	// rclRetryBase is the per-pair ack timeout; attempt n re-sends after
	// n*rclRetryBase (linear backoff, deterministic — the fabric's seeded
	// per-link streams provide the randomness the round needs).
	rclRetryBase = 3 * sim.Millisecond
	// rclMaxAttempts bounds the per-pair send budget; an unacked pair gives
	// up after this many sends so a partitioned survivor cannot stall the
	// view commit forever.
	rclMaxAttempts = 8
)

// ReconcileStats aggregates one failure's reconcile round for the control
// plane's outcome record.
type ReconcileStats struct {
	// Rounds counts guest groups that ran a survivor exchange.
	Rounds int
	// Repairs counts sequences repaired at importers: decisions adopted or
	// stashed, dead votes merged.
	Repairs int
	// Retries counts export re-sends beyond each pair's first.
	Retries int
	// GaveUp counts survivor pairs that exhausted their send budget.
	GaveUp int
}

// rclPair is one directed exporter→importer exchange within a session.
type rclPair struct {
	fromHost, toHost int
	attempts         int
	acked            bool
	done             bool
	retry            sim.Handle
}

// rclSession is one guest's reconcile exchange: every ordered survivor
// pair, exchanged under the guest's current (pre-commit) view.
type rclSession struct {
	c       *Cluster
	id      uint64
	guest   string
	dead    string // crashed origin host name
	pairs   []rclPair
	pending int
	repairs int
	retries int
	gaveUp  int
	hand    *rclHandle
}

// rclHandle tracks one ReconcileBeforeCommit call across its sessions.
type rclHandle struct {
	open  int
	stats ReconcileStats
	done  func(ReconcileStats)
}

// rclRec is one shard-recorded reconcile event: an ack (pair >= 0) or an
// import's repair count (pair == -1), drained at the next barrier.
type rclRec struct {
	when    sim.Time
	sess    uint64
	pair    int
	repairs int
}

// reconciler owns the cluster's reconcile-round state. Sessions are
// created and completed in exclusive contexts (control events and
// barriers); the per-shard queues are the only state shard events touch.
type reconciler struct {
	disabled bool
	nextSess uint64
	sessions map[uint64]*rclSession
	q        [][]rclRec
}

// rclAddr is a host's reconcile source endpoint. A dedicated source
// address gives the round its own fabric links — and so its own seeded
// jitter/loss streams — leaving every pre-existing link's stream untouched.
func rclAddr(host string) netsim.Addr { return netsim.Addr("rcl:" + host) }

// DisableViewReconcile force-disables the pre-commit reconcile round (the
// scenario harness's ablation switch): ReconcileBeforeCommit completes
// synchronously with zero stats and the view commits on the drain window
// alone, restoring the loss-intolerant behavior.
func (c *Cluster) DisableViewReconcile() { c.rcl.disabled = true }

// ReconcileBeforeCommit runs the pre-view-commit reconcile round for every
// listed guest resident on the crashed machine, and fires onDone — exactly
// once, possibly synchronously — when every survivor exchange has been
// acknowledged or has exhausted its budget. The control plane holds the
// post-crash view commit until both this and the proposal drain window
// have completed.
func (c *Cluster) ReconcileBeforeCommit(machine int, ids []string, onDone func(ReconcileStats)) {
	if machine < 0 || machine >= len(c.hosts) {
		onDone(ReconcileStats{})
		return
	}
	dead := c.hosts[machine].Name()
	hand := &rclHandle{done: onDone}
	var started []*rclSession
	if !c.rcl.disabled {
		for _, id := range ids {
			g, ok := c.guests[id]
			if !ok {
				continue
			}
			var survivors []int
			for _, w := range g.replicas {
				if w.hostIdx != machine && !c.hosts[w.hostIdx].Failed() && !w.rt.Stopped() {
					survivors = append(survivors, w.hostIdx)
				}
			}
			if len(survivors) < 2 {
				continue // nothing to exchange
			}
			if c.rcl.sessions == nil {
				c.rcl.sessions = make(map[uint64]*rclSession)
			}
			c.rcl.nextSess++
			s := &rclSession{c: c, id: c.rcl.nextSess, guest: id, dead: dead, hand: hand}
			for _, a := range survivors {
				for _, b := range survivors {
					if a != b {
						s.pairs = append(s.pairs, rclPair{fromHost: a, toHost: b})
					}
				}
			}
			s.pending = len(s.pairs)
			c.rcl.sessions[s.id] = s
			hand.open++
			hand.stats.Rounds++
			started = append(started, s)
		}
	}
	if hand.open == 0 {
		onDone(hand.stats)
		return
	}
	c.loop.After(rclSettle, "rcl:start", func() {
		for _, s := range started {
			for i := range s.pairs {
				s.sendExport(i)
			}
		}
	})
}

// sendExport builds and transmits pair i's export from the current device
// state (a retry re-snapshots — newer state only helps; imports are
// idempotent) and arms the ack-timeout retry. Runs on the control loop
// with all shards parked.
func (s *rclSession) sendExport(i int) {
	p := &s.pairs[i]
	if p.done {
		return
	}
	c := s.c
	nd := s.surviveND(p.fromHost)
	if nd == nil || c.hosts[p.toHost].Failed() {
		// The exporter or importer died (or the guest moved on) mid-round:
		// nothing left to exchange on this edge.
		s.completePair(p)
		return
	}
	if p.attempts >= rclMaxAttempts {
		s.gaveUp++
		s.completePair(p)
		return
	}
	if p.attempts > 0 {
		s.retries++
	}
	p.attempts++
	x := nd.ExportReconcile(s.dead)
	size := 64 + 16*(len(x.Resolutions)+len(x.DeadVotes))
	pkt := c.net.AllocTo(c.hostNodes[p.fromHost].rcl, c.hostNodes[p.toHost].ep, size, "swrcl", nil)
	pkt.Body = netsim.PacketBody{
		Kind: netsim.BodyReconcile, GuestID: s.guest, Origin: x.Origin, View: x.View,
		Seq: s.id, StreamSeq: uint64(i), Data: &x,
	}
	c.net.Send(pkt)
	p.retry = c.loop.AfterTimer(sim.Time(p.attempts)*rclRetryBase, "rcl:retry", rclRetryTimer, s, nil, uint64(i)).Handle()
}

// rclRetryTimer fires a pair's ack timeout on the control loop.
func rclRetryTimer(a, _ any, u uint64) {
	s := a.(*rclSession)
	s.sendExport(int(u))
}

// surviveND returns the live device of s.guest on the given host, nil if
// the replica died, froze or moved since the round started.
func (s *rclSession) surviveND(host int) *vmm.NetDevice {
	g, ok := s.c.guests[s.guest]
	if !ok {
		return nil
	}
	for _, w := range g.replicas {
		if w.hostIdx == host && !s.c.hosts[host].Failed() && !w.rt.Stopped() {
			return w.nd
		}
	}
	return nil
}

// completePair retires one pair; the last pair completes the session.
func (s *rclSession) completePair(p *rclPair) {
	if p.done {
		return
	}
	p.done = true
	s.c.loop.CancelHandle(p.retry)
	s.pending--
	if s.pending == 0 {
		s.complete()
	}
}

// complete folds the session into its handle and fires the commit gate
// once the last session finishes.
func (s *rclSession) complete() {
	delete(s.c.rcl.sessions, s.id)
	h := s.hand
	h.stats.Repairs += s.repairs
	h.stats.Retries += s.retries
	h.stats.GaveUp += s.gaveUp
	h.open--
	if h.open == 0 {
		h.done(h.stats)
	}
}

// handleReconcile processes an incoming export on the receiving host's
// shard: import into the local device (a vanished replica still acks — the
// exporter needs completion, not the import) and ack back to the exporter.
func (hn *hostNode) handleReconcile(p *netsim.Packet) {
	c := hn.c
	repairs := 0
	if x, ok := p.Body.Data.(*vmm.ReconcileExport); ok {
		if w, live := hn.residents[p.Body.GuestID]; live {
			repairs = w.nd.ImportReconcile(*x)
		}
	}
	now := hn.host.Loop().Now()
	if repairs > 0 {
		c.rcl.q[hn.shard] = append(c.rcl.q[hn.shard], rclRec{
			when: now, sess: p.Body.Seq, pair: -1, repairs: repairs,
		})
	}
	exporter, ok := c.hostIdxByName[p.Body.Origin]
	if !ok {
		return // no such machine to ack
	}
	ack := c.net.AllocTo(hn.rcl, c.hostNodes[exporter].ep, 32, "swrclack", nil)
	ack.Body = netsim.PacketBody{Kind: netsim.BodyReconcileAck, GuestID: p.Body.GuestID, Seq: p.Body.Seq, StreamSeq: p.Body.StreamSeq}
	c.net.Send(ack)
}

// handleReconcileAck records an ack on the receiving (exporter) host's
// shard for the next barrier.
func (hn *hostNode) handleReconcileAck(p *netsim.Packet) {
	hn.c.rcl.q[hn.shard] = append(hn.c.rcl.q[hn.shard], rclRec{
		when: hn.host.Loop().Now(), sess: p.Body.Seq, pair: int(p.Body.StreamSeq),
	})
}

// drainReconcile runs at every coordinator barrier (composed with
// drainStalls): merge the shard queues into one deterministic order and
// apply them — repairs accumulate, acks retire pairs and cancel their
// retry timers. Identical for every shard count: the order depends only on
// event timestamps and session/pair ids, never on shard layout.
func (c *Cluster) drainReconcile() {
	total := 0
	for _, q := range c.rcl.q {
		total += len(q)
	}
	if total == 0 {
		return
	}
	recs := make([]rclRec, 0, total)
	for k, q := range c.rcl.q {
		recs = append(recs, q...)
		c.rcl.q[k] = q[:0]
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && rclLess(recs[j], recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	for _, rec := range recs {
		s, ok := c.rcl.sessions[rec.sess]
		if !ok {
			continue // session already completed (late ack or repair)
		}
		if rec.pair < 0 {
			s.repairs += rec.repairs
			continue
		}
		if rec.pair >= len(s.pairs) {
			continue
		}
		p := &s.pairs[rec.pair]
		if p.done || p.acked {
			continue
		}
		p.acked = true
		s.completePair(p)
	}
}

// rclLess orders drained records by (when, session, pair, repairs).
func rclLess(a, b rclRec) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.sess != b.sess {
		return a.sess < b.sess
	}
	if a.pair != b.pair {
		return a.pair < b.pair
	}
	return a.repairs < b.repairs
}
