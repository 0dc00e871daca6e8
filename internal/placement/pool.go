package placement

import (
	"fmt"
	"sort"
)

// ErrNoFeasibleHost reports that an admission or re-home request cannot be
// satisfied by the current pool state: every candidate triangle (or host)
// either reuses an occupied K_n edge, exceeds a machine's capacity, or
// lands on a machine marked out of service. It is the expected online
// analogue of Theorem 1's packing bound, not a bug; callers check it with
// errors.Is and degrade gracefully (reject the tenant, keep serving on two
// replicas, skip the move).
var ErrNoFeasibleHost = fmt.Errorf("%w: no feasible host", ErrPlacement)

// ErrDrained reports an availability-record misuse: marking a machine with a
// reason it already carries, or clearing one it does not.
var ErrDrained = fmt.Errorf("%w: drain state", ErrPlacement)

// Reason is one cause for a machine to take no new replica. A machine's
// availability record is the set of reasons currently marked against it;
// they are independent, so a machine drained for maintenance that then
// crashes carries both, and clearing one leaves the other.
type Reason uint8

const (
	// Maintenance: the operator took the machine out (DrainOp … UndrainOp).
	Maintenance Reason = 1 << iota
	// Failed: the machine's VMM is dead (FailOp … RepairOp).
	Failed
)

func (r Reason) String() string {
	if r == Failed {
		return "failed"
	}
	return "drained"
}

// Pool is the incremental counterpart of GreedyPack/PlaceTheorem2: it
// maintains an edge-disjoint triangle packing of K_n under online guest
// arrivals (Admit), departures (Release) and replica re-homing after a
// failure (Rehome), instead of recomputing a static Bose packing.
//
// Invariants, preserved by every mutation:
//
//  1. Edge-disjointness: each undirected edge {a,b} of K_n is held by at
//     most one resident guest (the paper's replica-nonoverlap constraint —
//     two guests may share at most one machine).
//  2. Capacity: each machine hosts at most Capacity resident replicas
//     (when Capacity > 0).
//  3. Conservation: Release and Rehome return a departing replica's edges
//     and capacity to the pool exactly once.
//
// Host selection is deterministic: candidates are scanned least-loaded
// first with the machine index as tie-break, so a seeded scenario replays
// bit-identically.
type Pool struct {
	n        int
	capacity int

	// used maps each occupied normalized edge to the guest holding it.
	used map[[2]int]string
	// load is the resident replica count per machine.
	load []int
	// tris is the triangle of each resident guest.
	tris map[string]Triangle
	// out is the availability record: per machine, the reasons it takes no
	// new replica (zero: in service). A marked machine keeps its current
	// residents until they are evacuated. This is the one place that says
	// which machines placement may use.
	out []Reason

	// orderScratch and countScratch back hostOrder so every placement
	// decision does not allocate a fresh index slice.
	orderScratch []int
	countScratch []int
}

// NewPool creates an empty pool over n machines of per-machine capacity c
// (c <= 0 means unbounded).
func NewPool(n, c int) (*Pool, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrPlacement, n)
	}
	return &Pool{
		n:        n,
		capacity: c,
		used:     make(map[[2]int]string),
		load:     make([]int, n),
		tris:     make(map[string]Triangle),
		out:      make([]Reason, n),
	}, nil
}

// N returns the machine count.
func (p *Pool) N() int { return p.n }

// Capacity returns the per-machine capacity (<= 0: unbounded).
func (p *Pool) Capacity() int { return p.capacity }

// Guests returns the number of resident guests.
func (p *Pool) Guests() int { return len(p.tris) }

// Load returns machine i's resident replica count.
func (p *Pool) Load(i int) int {
	if i < 0 || i >= p.n {
		return 0
	}
	return p.load[i]
}

// EdgesUsed returns the number of occupied K_n edges (3 per guest).
func (p *Pool) EdgesUsed() int { return len(p.used) }

// Utilization returns resident replicas over the total capacity of the
// undrained machines, in [0,1] — transiently above 1 while a drained
// machine still holds residents awaiting evacuation. With unbounded
// capacity (or everything drained) it returns 0.
func (p *Pool) Utilization() float64 {
	if p.capacity <= 0 || p.n == 0 {
		return 0
	}
	avail := 0
	for i := 0; i < p.n; i++ {
		if p.out[i] == 0 {
			avail++
		}
	}
	if avail == 0 {
		return 0
	}
	return float64(3*len(p.tris)) / float64(avail*p.capacity)
}

// Mark records reason r against machine i: it keeps its current residents
// (evacuating them is the control plane's job) but Admit, Rehome and
// RehomeTo put no new replica on it until every reason is cleared.
func (p *Pool) Mark(i int, r Reason) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("%w: machine %d out of range", ErrPlacement, i)
	}
	if p.out[i]&r != 0 {
		return fmt.Errorf("%w: machine %d already %v", ErrDrained, i, r)
	}
	p.out[i] |= r
	return nil
}

// Clear removes reason r from machine i's record; the machine's capacity
// returns to the pool once no reason is left.
func (p *Pool) Clear(i int, r Reason) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("%w: machine %d out of range", ErrPlacement, i)
	}
	if p.out[i]&r == 0 {
		return fmt.Errorf("%w: machine %d not %v", ErrDrained, i, r)
	}
	p.out[i] &^= r
	return nil
}

// Drained reports whether machine i is out of placement, for any reason.
func (p *Pool) Drained(i int) bool {
	return i >= 0 && i < p.n && p.out[i] != 0
}

// Residents returns the ids of guests with a replica on machine i, sorted —
// the deterministic evacuation order for a host drain.
func (p *Pool) Residents(i int) []string {
	var ids []string
	for id, t := range p.tris {
		if t[0] == i || t[1] == i || t[2] == i {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Triangle returns the resident guest's triangle.
func (p *Pool) Triangle(id string) (Triangle, bool) {
	t, ok := p.tris[id]
	return t, ok
}

// edge normalizes an undirected edge.
func poolEdge(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// hostOrder returns machine indices sorted least-loaded first — replica
// load, then index — the deterministic scan order for all placement
// decisions. The returned slice is pool-owned
// scratch, valid until the next call.
func (p *Pool) hostOrder() []int {
	if p.orderScratch == nil {
		p.orderScratch = make([]int, p.n)
	}
	// A counting sort: loads take a handful of values (0..capacity; when
	// capacity is unbounded, 0..the largest load), and filling each load's
	// run in index order is the ascending-index tie-break of a stable sort.
	next := p.countScratch[:0] // next[v]: where the next machine of load v goes
	for _, v := range p.load {
		for v >= len(next) {
			next = append(next, 0)
		}
		next[v]++
	}
	at := 0
	for v, c := range next {
		next[v], at = at, at+c
	}
	order := p.orderScratch
	for i, v := range p.load {
		order[next[v]] = i
		next[v]++
	}
	p.countScratch = next
	return order
}

// hostFull reports whether machine i can take no further replica: marked
// out of service, or at capacity.
func (p *Pool) hostFull(i int) bool {
	return p.out[i] != 0 || (p.capacity > 0 && p.load[i] >= p.capacity)
}

// Admit places a new guest on the least-loaded non-conflicting triangle and
// records it under id. It fails with ErrNoFeasibleHost when no edge-disjoint
// triangle with spare capacity exists.
func (p *Pool) Admit(id string) (Triangle, error) {
	if id == "" {
		return Triangle{}, fmt.Errorf("%w: empty guest id", ErrPlacement)
	}
	if _, dup := p.tris[id]; dup {
		return Triangle{}, fmt.Errorf("%w: guest %q already resident", ErrPlacement, id)
	}
	t, ok := p.findTriangle()
	if !ok {
		return Triangle{}, &infeasibleError{verb: "admit", id: id}
	}
	p.commit(id, t)
	return t, nil
}

// findTriangle scans for the least-loaded edge-disjoint triangle with spare
// capacity — Admit's placement decision, shared with the migration planner's
// dry runs.
func (p *Pool) findTriangle() (Triangle, bool) {
	order := p.hostOrder()
	for ia, a := range order {
		if p.hostFull(a) {
			continue
		}
		for ib := ia + 1; ib < len(order); ib++ {
			b := order[ib]
			if p.hostFull(b) || p.edgeUsed(a, b) {
				continue
			}
			for ic := ib + 1; ic < len(order); ic++ {
				c := order[ic]
				if p.hostFull(c) || p.edgeUsed(a, c) || p.edgeUsed(b, c) {
					continue
				}
				return Triangle{a, b, c}.normalize(), true
			}
		}
	}
	return Triangle{}, false
}

// infeasibleError is the typed no-feasible-host failure. A full pool makes
// this the common outcome of the admission hot path (callers evict and
// retry), so it formats lazily instead of paying fmt.Errorf per attempt.
type infeasibleError struct {
	verb string
	id   string
}

func (e *infeasibleError) Error() string {
	return fmt.Sprintf("%s %q: %v", e.verb, e.id, ErrNoFeasibleHost)
}

func (e *infeasibleError) Unwrap() error { return ErrNoFeasibleHost }

// AdmitTriangle places a guest on an explicit triangle (e.g. replaying a
// stored assignment, or restoring one after a failed replacement),
// enforcing edge-disjointness and capacity. Unlike Admit it will place on
// a marked machine: the caller named the triangle deliberately, and the
// rollback of a replica move must be able to restore the pre-move state
// mid-drain.
func (p *Pool) AdmitTriangle(id string, t Triangle) error {
	if id == "" {
		return fmt.Errorf("%w: empty guest id", ErrPlacement)
	}
	if _, dup := p.tris[id]; dup {
		return fmt.Errorf("%w: guest %q already resident", ErrPlacement, id)
	}
	t = t.normalize()
	if t[0] == t[1] || t[1] == t[2] {
		return fmt.Errorf("%w: degenerate triangle %v", ErrPlacement, t)
	}
	for _, v := range t {
		if v < 0 || v >= p.n {
			return fmt.Errorf("%w: machine %d out of range", ErrPlacement, v)
		}
		if p.capacity > 0 && p.load[v] >= p.capacity {
			return fmt.Errorf("admit %q on %v: %w", id, t, ErrNoFeasibleHost)
		}
	}
	for _, e := range t.edges() {
		if owner, busy := p.used[e]; busy {
			return fmt.Errorf("admit %q on %v: edge %v held by %q: %w", id, t, e, owner, ErrNoFeasibleHost)
		}
	}
	p.commit(id, t)
	return nil
}

func (p *Pool) edgeUsed(a, b int) bool {
	_, ok := p.used[poolEdge(a, b)]
	return ok
}

func (p *Pool) commit(id string, t Triangle) {
	for _, e := range t.edges() {
		p.used[e] = id
	}
	for _, v := range t {
		p.load[v]++
	}
	p.tris[id] = t
}

// Release evicts a resident guest, returning its edges and capacity to the
// pool, and reports the triangle it occupied.
func (p *Pool) Release(id string) (Triangle, error) {
	t, ok := p.tris[id]
	if !ok {
		return Triangle{}, fmt.Errorf("%w: guest %q not resident", ErrPlacement, id)
	}
	for _, e := range t.edges() {
		delete(p.used, e)
	}
	for _, v := range t {
		p.load[v]--
	}
	delete(p.tris, id)
	return t, nil
}

// survivors returns the two machines of guest id's triangle other than
// from — the replicas a move off from reconstructs the third alongside.
func (p *Pool) survivors(id string, from int) (s1, s2 int, err error) {
	t, ok := p.tris[id]
	if !ok {
		return 0, 0, fmt.Errorf("%w: guest %q not resident", ErrPlacement, id)
	}
	for slot, v := range t {
		if v == from {
			return t[(slot+1)%3], t[(slot+2)%3], nil
		}
	}
	return 0, 0, fmt.Errorf("%w: guest %q has no replica on machine %d", ErrPlacement, id, from)
}

// Rehome moves guest id's replica off machine dead onto a fresh machine
// whose edges to both survivors are free (the paper's Sec. VII replacement:
// the two surviving replicas re-create the third elsewhere). The dead
// machine itself is excluded. It returns the updated triangle and the
// chosen machine.
func (p *Pool) Rehome(id string, dead int) (Triangle, int, error) {
	s1, s2, err := p.survivors(id, dead)
	if err != nil {
		return Triangle{}, 0, err
	}
	h, ok := p.findRehomeHost(s1, s2, dead)
	if !ok {
		return Triangle{}, 0, fmt.Errorf("rehome %q off machine %d: %w", id, dead, ErrNoFeasibleHost)
	}
	return p.moveReplica(id, dead, h), h, nil
}

// findRehomeHost scans for a machine that can take a replica alongside
// survivors s1 and s2 (the dead machine excluded) — Rehome's placement
// decision, shared with the migration planner's dry runs.
func (p *Pool) findRehomeHost(s1, s2, dead int) (int, bool) {
	for _, h := range p.hostOrder() {
		if h == dead || !p.canPlace(h, s1, s2) {
			continue
		}
		return h, true
	}
	return 0, false
}

// canPlace reports whether machine h can host a replica alongside survivors
// s1 and s2: not one of them, not full, and both new edges free.
func (p *Pool) canPlace(h, s1, s2 int) bool {
	return h != s1 && h != s2 && !p.hostFull(h) &&
		!p.edgeUsed(s1, h) && !p.edgeUsed(s2, h)
}

// moveReplica moves guest id's replica from machine `from` to machine `to`
// without feasibility checks — the caller has established them (or is
// reverting a speculative move, which is always legal: the freed edges and
// capacity are exactly the ones the forward move claimed). It returns the
// updated triangle.
func (p *Pool) moveReplica(id string, from, to int) Triangle {
	s1, s2, _ := p.survivors(id, from)
	delete(p.used, poolEdge(s1, from))
	delete(p.used, poolEdge(s2, from))
	p.load[from]--
	nt := Triangle{s1, s2, to}.normalize()
	for _, e := range nt.edges() {
		p.used[e] = id
	}
	p.load[to]++
	p.tris[id] = nt
	return nt
}

// CanRehomeTo reports whether RehomeTo(id, from, to) would succeed, without
// changing the pool: guest id has a replica on from, and to is a different
// machine that is neither full nor marked out of service and whose edges to
// both survivors are free.
func (p *Pool) CanRehomeTo(id string, from, to int) bool {
	s1, s2, err := p.survivors(id, from)
	return err == nil && to >= 0 && to < p.n && to != from && p.canPlace(to, s1, s2)
}

// RehomeTo moves guest id's replica from machine `from` onto the pinned
// machine `to` — the planned-migration analogue of Rehome, where the
// destination was chosen by the planner instead of scanned for. It fails
// with ErrNoFeasibleHost when the pinned destination cannot take the replica
// (full, marked out of service, or an edge to a survivor is occupied).
func (p *Pool) RehomeTo(id string, from, to int) (Triangle, error) {
	if _, _, err := p.survivors(id, from); err != nil {
		return Triangle{}, err
	}
	if to < 0 || to >= p.n {
		return Triangle{}, fmt.Errorf("%w: machine %d out of range", ErrPlacement, to)
	}
	if !p.CanRehomeTo(id, from, to) {
		return Triangle{}, fmt.Errorf("migrate %q %d→%d: %w", id, from, to, ErrNoFeasibleHost)
	}
	return p.moveReplica(id, from, to), nil
}

// MigrationPlan is a single planned replica move that unblocks an otherwise
// infeasible placement request: move GuestID's replica From → To, then retry.
type MigrationPlan struct {
	GuestID  string
	From, To int
}

// planMigration is the planners' search: the first single move — of a
// guest other than id that avoid (when non-nil) does not exclude, e.g. as
// mid-operation, onto a machine other than barred — after which feasible
// holds. Donor guests are scanned in sorted-id order and destinations
// least-loaded first, so the plan is deterministic. The pool is left
// unchanged: each move is speculative, applied and reverted.
func (p *Pool) planMigration(id string, barred int, avoid func(string) bool, feasible func() bool) (MigrationPlan, bool) {
	order := append([]int(nil), p.hostOrder()...)
	for _, mid := range p.IDs() {
		if mid == id || (avoid != nil && avoid(mid)) {
			continue
		}
		t := p.tris[mid]
		for si := 0; si < 3; si++ {
			from := t[si]
			m1, m2 := t[(si+1)%3], t[(si+2)%3]
			for _, to := range order {
				if to == barred || to == from || !p.canPlace(to, m1, m2) {
					continue
				}
				p.moveReplica(mid, from, to)
				ok := feasible()
				p.moveReplica(mid, to, from)
				if ok {
					return MigrationPlan{GuestID: mid, From: from, To: to}, true
				}
			}
		}
	}
	return MigrationPlan{}, false
}

// PlanAdmitMigration searches for a one-move migration after which Admit(id)
// would succeed (planMigration has the scan order and avoid).
func (p *Pool) PlanAdmitMigration(id string, avoid func(string) bool) (MigrationPlan, bool) {
	if _, dup := p.tris[id]; id == "" || dup {
		return MigrationPlan{}, false
	}
	return p.planMigration(id, -1, avoid, func() bool { _, ok := p.findTriangle(); return ok })
}

// PlanRehomeMigration searches for a one-move migration of some other guest
// after which Rehome(id, dead) would succeed — the recovery analogue of
// PlanAdmitMigration, for a crashed replica that cannot be re-homed in the
// current packing. The dead machine is excluded as a destination.
func (p *Pool) PlanRehomeMigration(id string, dead int, avoid func(string) bool) (MigrationPlan, bool) {
	s1, s2, err := p.survivors(id, dead)
	if err != nil {
		return MigrationPlan{}, false
	}
	return p.planMigration(id, dead, avoid, func() bool { _, ok := p.findRehomeHost(s1, s2, dead); return ok })
}

// IDs returns the resident guest ids in sorted order.
func (p *Pool) IDs() []string {
	ids := make([]string, 0, len(p.tris))
	for id := range p.tris {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Snapshot returns the current packing as a Placement (for Verify and for
// interop with the offline tooling). Triangles are ordered by guest id.
func (p *Pool) Snapshot() *Placement {
	ids := p.IDs()
	tris := make([]Triangle, 0, len(ids))
	for _, id := range ids {
		tris = append(tris, p.tris[id])
	}
	return &Placement{N: p.n, Capacity: p.capacity, Triangles: tris}
}

// Verify audits the pool against the StopWatch constraints. With no ids it
// checks the full state via the same checker the offline constructions use,
// plus the pool's own bookkeeping (edge count and load consistency). With
// ids it checks only those guests — each resident one owns its three edges
// and sits on machines within capacity — plus the O(1) edge count, so a
// caller auditing after every operation pays for what the operation touched.
func (p *Pool) Verify(ids ...string) error {
	if len(p.used) != 3*len(p.tris) {
		return fmt.Errorf("%w: %d edges recorded for %d guests", ErrPlacement, len(p.used), len(p.tris))
	}
	for _, id := range ids {
		t, ok := p.tris[id]
		if !ok {
			continue // departed, or never placed: it holds nothing
		}
		for _, e := range t.edges() {
			if owner := p.used[e]; owner != id {
				return fmt.Errorf("%w: edge %v of guest %q on %v is held by %q", ErrPlacement, e, id, t, owner)
			}
		}
		for _, v := range t {
			if p.capacity > 0 && p.load[v] > p.capacity {
				return fmt.Errorf("%w: machine %d load %d exceeds capacity %d", ErrPlacement, v, p.load[v], p.capacity)
			}
		}
	}
	if len(ids) > 0 {
		return nil
	}
	if err := p.Snapshot().Verify(); err != nil {
		return err
	}
	want := make([]int, p.n)
	for _, t := range p.tris {
		for _, v := range t {
			want[v]++
		}
	}
	for i, l := range p.load {
		if l != want[i] {
			return fmt.Errorf("%w: machine %d load %d, triangles say %d", ErrPlacement, i, l, want[i])
		}
	}
	return nil
}
