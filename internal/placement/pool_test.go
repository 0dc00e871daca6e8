package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestPoolAdmitUntilFull(t *testing.T) {
	// Admitting greedily must stay within Theorem 1's bound and match the
	// offline greedy packer's order of magnitude.
	for _, tc := range []struct{ n, c int }{{9, 4}, {15, 7}, {20, 5}, {21, 10}} {
		p, err := NewPool(tc.n, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		admitted := 0
		for {
			if _, err := p.Admit(fmt.Sprintf("g%d", admitted)); err != nil {
				if !errors.Is(err, ErrNoFeasibleHost) {
					t.Fatalf("n=%d c=%d: %v", tc.n, tc.c, err)
				}
				break
			}
			admitted++
			if err := p.Verify(); err != nil {
				t.Fatalf("n=%d c=%d after %d admits: %v", tc.n, tc.c, admitted, err)
			}
		}
		max, err := Theorem1Max(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if admitted > max {
			t.Fatalf("n=%d: admitted %d > Theorem 1 bound %d", tc.n, admitted, max)
		}
		g, err := GreedyPack(tc.n, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		// The balanced online packer should land within 2x of the offline
		// lexicographic greedy (both are constant-factor approximations).
		if 2*admitted < g.Guests() {
			t.Fatalf("n=%d c=%d: pool admitted %d, offline greedy packs %d", tc.n, tc.c, admitted, g.Guests())
		}
	}
}

// TestPoolChurnPropertyEdgeDisjoint is the admit-until-full then
// evict-and-readmit property test: across random interleavings of arrivals
// and departures, every intermediate state preserves edge-disjointness,
// capacity, and bookkeeping conservation.
func TestPoolChurnPropertyEdgeDisjoint(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewPool(21, 6)
		if err != nil {
			t.Fatal(err)
		}
		resident := map[string]Triangle{}
		next := 0
		for step := 0; step < 400; step++ {
			if len(resident) == 0 || rng.Intn(3) != 0 {
				id := fmt.Sprintf("g%d", next)
				next++
				tri, err := p.Admit(id)
				if errors.Is(err, ErrNoFeasibleHost) {
					// Full: evict someone instead.
					for victim := range resident {
						got, err := p.Release(victim)
						if err != nil {
							t.Fatal(err)
						}
						if got != resident[victim] {
							t.Fatalf("seed %d: released %v, admitted as %v", seed, got, resident[victim])
						}
						delete(resident, victim)
						break
					}
				} else if err != nil {
					t.Fatal(err)
				} else {
					resident[id] = tri
				}
			} else {
				for victim := range resident {
					if _, err := p.Release(victim); err != nil {
						t.Fatal(err)
					}
					delete(resident, victim)
					break
				}
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if p.Guests() != len(resident) {
				t.Fatalf("seed %d: pool says %d guests, model says %d", seed, p.Guests(), len(resident))
			}
		}
		// Drain completely: the pool must return to pristine.
		for id := range resident {
			if _, err := p.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		if p.EdgesUsed() != 0 || p.Guests() != 0 {
			t.Fatalf("seed %d: drained pool still holds %d edges, %d guests", seed, p.EdgesUsed(), p.Guests())
		}
		for i := 0; i < p.N(); i++ {
			if p.Load(i) != 0 {
				t.Fatalf("seed %d: machine %d load %d after drain", seed, i, p.Load(i))
			}
		}
	}
}

func TestPoolRehome(t *testing.T) {
	p, err := NewPool(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	t0, err := p.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit("b"); err != nil {
		t.Fatal(err)
	}
	dead := t0[2]
	nt, host, err := p.Rehome("a", dead)
	if err != nil {
		t.Fatal(err)
	}
	if host == dead || host == t0[0] || host == t0[1] {
		t.Fatalf("rehomed onto %d from triangle %v", host, t0)
	}
	found := false
	for _, v := range nt {
		if v == host {
			found = true
		}
		if v == dead {
			t.Fatalf("dead machine %d still in triangle %v", dead, nt)
		}
	}
	if !found {
		t.Fatalf("new triangle %v missing chosen host %d", nt, host)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	// The freed edges are reusable: a guest placed across the dead machine
	// and the survivors must admit cleanly.
	if err := p.AdmitTriangle("c", Triangle{t0[0], t0[1] /* survivors' shared edge is taken */, dead}); err == nil {
		t.Fatal("survivors' shared edge should still be held")
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRehomeExhaustion(t *testing.T) {
	// 3 machines: a failure has nowhere to go.
	p, err := NewPool(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := p.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Rehome("a", tri[0]); !errors.Is(err, ErrNoFeasibleHost) {
		t.Fatalf("want ErrNoFeasibleHost, got %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if tr, _ := p.Triangle("a"); tr != tri {
		t.Fatalf("failed rehome mutated triangle: %v != %v", tr, tri)
	}
}

// TestPlanRehomeMigration: web's replica on machine 0 has nowhere to go —
// a holds web's survivor 1's edges to 3 and 4, b its edges to 5 and 6 — and
// the planner finds the one move of another guest that opens a machine,
// skipping the guests avoid names, and never offers the dead machine. The
// plan is a dry run: the pool is unchanged until the move is made, after
// which Rehome succeeds.
func TestPlanRehomeMigration(t *testing.T) {
	blocked := func() *Pool {
		p, err := NewPool(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		for id, tri := range map[string]Triangle{"web": {0, 1, 2}, "a": {1, 3, 4}, "b": {1, 5, 6}} {
			if err := p.AdmitTriangle(id, tri); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := p.Rehome("web", 0); !errors.Is(err, ErrNoFeasibleHost) {
			t.Fatalf("web re-homed with machines 3-6 blocked: %v", err)
		}
		return p
	}
	for _, tc := range []struct {
		avoid func(string) bool
		want  MigrationPlan
		lands Triangle
	}{
		// a's replica on 1 moves to 5: machine 3 opens for web.
		{nil, MigrationPlan{GuestID: "a", From: 1, To: 5}, Triangle{1, 2, 3}},
		// With a held by another op, b's replica on 1 moves to 3: 5 opens.
		{func(id string) bool { return id == "a" }, MigrationPlan{GuestID: "b", From: 1, To: 3}, Triangle{1, 2, 5}},
	} {
		p := blocked()
		before := p.Snapshot()
		plan, ok := p.PlanRehomeMigration("web", 0, tc.avoid)
		if !ok || plan != tc.want {
			t.Fatalf("plan %+v (found %v), want %+v", plan, ok, tc.want)
		}
		if got := p.Snapshot(); !reflect.DeepEqual(got, before) {
			t.Fatalf("planning changed the pool: %v, was %v", got, before)
		}
		if _, err := p.RehomeTo(plan.GuestID, plan.From, plan.To); err != nil {
			t.Fatal(err)
		}
		if tri, _, err := p.Rehome("web", 0); err != nil || tri != tc.lands {
			t.Fatalf("after the planned move web re-homed onto %v (%v), want %v", tri, err, tc.lands)
		}
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing to plan for a guest that is not resident or has no replica on
	// the dead machine, or when every donor is held.
	p := blocked()
	for _, c := range []struct {
		id    string
		dead  int
		avoid func(string) bool
	}{
		{"ghost", 0, nil},
		{"web", 4, nil},
		{"web", 0, func(string) bool { return true }},
	} {
		if plan, ok := p.PlanRehomeMigration(c.id, c.dead, c.avoid); ok {
			t.Fatalf("PlanRehomeMigration(%q, %d) = %+v", c.id, c.dead, plan)
		}
	}
}

func TestPoolAdmitTriangleValidation(t *testing.T) {
	p, err := NewPool(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AdmitTriangle("a", Triangle{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.AdmitTriangle("b", Triangle{0, 1, 3}); !errors.Is(err, ErrNoFeasibleHost) {
		t.Fatalf("edge reuse: want ErrNoFeasibleHost, got %v", err)
	}
	if err := p.AdmitTriangle("b", Triangle{1, 1, 3}); err == nil {
		t.Fatal("degenerate triangle admitted")
	}
	if err := p.AdmitTriangle("b", Triangle{5, 6, 9}); err == nil {
		t.Fatal("out-of-range machine admitted")
	}
	if err := p.AdmitTriangle("a", Triangle{3, 4, 5}); err == nil {
		t.Fatal("duplicate id admitted")
	}
	if err := p.AdmitTriangle("b", Triangle{0, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Machines 0 and 1 are now at capacity 2.
	if err := p.AdmitTriangle("c", Triangle{0, 5, 6}); !errors.Is(err, ErrNoFeasibleHost) {
		t.Fatalf("capacity: want ErrNoFeasibleHost, got %v", err)
	}
}

func TestPoolDrainExcludesMachine(t *testing.T) {
	p, err := NewPool(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit("a"); err != nil {
		t.Fatal(err)
	}
	// Drain an empty machine: no future triangle may touch it.
	victim := 8
	if p.Load(victim) != 0 {
		t.Fatalf("machine %d unexpectedly loaded", victim)
	}
	if err := p.Mark(victim, Maintenance); err != nil {
		t.Fatal(err)
	}
	if err := p.Mark(victim, Maintenance); !errors.Is(err, ErrDrained) {
		t.Fatalf("double drain: want ErrDrained, got %v", err)
	}
	if !p.Drained(victim) {
		t.Fatal("machine not marked drained")
	}
	for i := 0; ; i++ {
		tri, err := p.Admit(fmt.Sprintf("g%d", i))
		if err != nil {
			if !errors.Is(err, ErrNoFeasibleHost) {
				t.Fatal(err)
			}
			break
		}
		for _, v := range tri {
			if v == victim {
				t.Fatalf("admitted onto drained machine: %v", tri)
			}
		}
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	// Rehome must skip the drained machine too.
	triA, _ := p.Triangle("a")
	if nt, h, err := p.Rehome("a", triA[0]); err == nil {
		if h == victim || nt[0] == victim || nt[1] == victim || nt[2] == victim {
			t.Fatalf("rehomed onto drained machine: %v via %d", nt, h)
		}
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	// The reasons are independent: the machine crashes mid-maintenance, and
	// ending the maintenance leaves it out of service until it is repaired.
	if err := p.Mark(victim, Failed); err != nil {
		t.Fatal(err)
	}
	if err := p.Clear(victim, Maintenance); err != nil {
		t.Fatal(err)
	}
	if err := p.Clear(victim, Maintenance); !errors.Is(err, ErrDrained) {
		t.Fatalf("double undrain: want ErrDrained, got %v", err)
	}
	if !p.Drained(victim) {
		t.Fatal("clearing Maintenance also cleared Failed")
	}
	if cur, _ := p.Triangle("a"); p.CanRehomeTo("a", cur[0], victim) {
		t.Fatal("a failed machine offered as a destination")
	} else if _, err := p.RehomeTo("a", cur[0], victim); !errors.Is(err, ErrNoFeasibleHost) {
		t.Fatalf("pinned move onto a failed machine: %v", err)
	}
	// Clearing the last reason restores the capacity; edges stay conserved
	// throughout.
	if err := p.Clear(victim, Failed); err != nil {
		t.Fatal(err)
	}
	if p.Drained(victim) {
		t.Fatal("machine still out of service with no reason left")
	}
	if p.EdgesUsed() != 3*p.Guests() {
		t.Fatalf("%d edges for %d guests", p.EdgesUsed(), p.Guests())
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolResidents(t *testing.T) {
	p, err := NewPool(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AdmitTriangle("b", Triangle{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.AdmitTriangle("a", Triangle{0, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := p.Residents(0)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Residents(0) = %v, want sorted [a b]", got)
	}
	if r := p.Residents(5); len(r) != 0 {
		t.Fatalf("Residents(5) = %v", r)
	}
}

// TestCanRehomeToAgreesWithRehomeTo: on random packings with machines out for
// maintenance, failed, both, and full, the dry run answers exactly what the move then does —
// for every (guest, source, destination), out-of-range and non-member
// arguments included — and a refused move changes nothing.
func TestCanRehomeToAgreesWithRehomeTo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	moves, refusals := 0, 0
	for round := 0; round < 20; round++ {
		n := 6 + rng.Intn(7)
		p, err := NewPool(n, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		// Fill to a random depth (often to rejection, so some machines are
		// at capacity), then take machines out both ways.
		for g, want := 0, 1+rng.Intn(2*n); g < want; g++ {
			if _, err := p.Admit(fmt.Sprintf("g%d", g)); err != nil {
				break
			}
		}
		for i := 0; i < n; i++ {
			for _, r := range []Reason{Maintenance, Failed} {
				if rng.Intn(5) == 0 {
					if err := p.Mark(i, r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, id := range append(p.IDs(), "ghost") {
			for from := -1; from <= n; from++ {
				for to := -1; to <= n; to++ {
					before := p.Snapshot()
					can := p.CanRehomeTo(id, from, to)
					tri, err := p.RehomeTo(id, from, to)
					if can != (err == nil) {
						t.Fatalf("round %d: CanRehomeTo(%s, %d, %d) = %v but RehomeTo: %v", round, id, from, to, can, err)
					}
					if verr := p.Verify(); verr != nil {
						t.Fatalf("round %d: after RehomeTo(%s, %d, %d): %v", round, id, from, to, verr)
					}
					if err != nil {
						refusals++
						if after := p.Snapshot(); fmt.Sprint(after.Triangles) != fmt.Sprint(before.Triangles) {
							t.Fatalf("round %d: refused RehomeTo(%s, %d, %d) changed the packing:\n%v\n%v",
								round, id, from, to, before.Triangles, after.Triangles)
						}
						continue
					}
					moves++
					if tri.Contains(from) || !tri.Contains(to) {
						t.Fatalf("round %d: RehomeTo(%s, %d, %d) returned %v", round, id, from, to, tri)
					}
				}
			}
		}
	}
	if moves < 100 || refusals < 100 {
		t.Fatalf("property barely exercised: %d moves, %d refusals", moves, refusals)
	}
}

// TestPoolVerifyGuests: the per-guest audit catches damage to the guests it
// is asked about — a stolen edge, a machine over capacity, the edge count —
// and says nothing about a guest that is not resident.
func TestPoolVerifyGuests(t *testing.T) {
	p, err := NewPool(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id, tri := range map[string]Triangle{"a": {0, 1, 2}, "b": {0, 3, 4}} {
		if err := p.AdmitTriangle(id, tri); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Verify("a", "b", "ghost"); err != nil {
		t.Fatal(err)
	}
	p.used[poolEdge(0, 1)] = "b"
	if p.Verify("a") == nil {
		t.Fatal("stolen edge not caught")
	}
	if err := p.Verify("b"); err != nil {
		t.Fatalf("audit of an undamaged guest: %v", err)
	}
	p.used[poolEdge(0, 1)] = "a"
	p.load[3] = 3
	if p.Verify("b") == nil || p.Verify("a") != nil {
		t.Fatal("over-capacity machine: want it caught on b's audit only")
	}
	p.load[3] = 1
	delete(p.used, poolEdge(3, 4))
	if p.Verify("a") == nil {
		t.Fatal("edge count not checked on a per-guest audit")
	}
}

// TestHostOrderEqualsStableSort: hostOrder's counting sort is the stable
// sort by load it replaced — ties in ascending index — on 1,000 random load
// vectors, bounded capacity and unbounded (where the largest load sizes the
// count array).
func TestHostOrderEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 1000; trial++ {
		n, capacity := 1+rng.Intn(1000), rng.Intn(6)
		p, err := NewPool(n, capacity)
		if err != nil {
			t.Fatal(err)
		}
		top := capacity
		if capacity == 0 {
			top = 1 + rng.Intn(300)
		}
		for i := range p.load {
			p.load[i] = rng.Intn(top + 1)
		}
		check := func(when string) {
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return p.load[want[a]] < p.load[want[b]] })
			if got := p.hostOrder(); !slices.Equal(got, want) {
				t.Fatalf("trial %d (n %d, capacity %d), %s: hostOrder differs from the stable sort by load", trial, n, capacity, when)
			}
		}
		check("first call")
		// The scratch is reused: a call on lighter loads must not see the
		// counts of the one before.
		for i := range p.load {
			p.load[i] /= 2
		}
		check("second call on the same pool")
	}
}
