// Package placement implements Sec. VIII of the paper: placing each guest
// VM's three replicas so that the replicas of any guest coreside with
// nonoverlapping sets of (replicas of) other VMs. Placements are
// edge-disjoint triangle packings of the complete graph K_n:
//
//   - Theorem 1 (via Horsley) gives the maximum number of triangles.
//   - Theorem 2 constructs capacity-constrained placements from Bose's
//     Steiner-triple-system construction over an idempotent commutative
//     quasigroup, achieving Θ(cn) guests on n machines of capacity c.
//
// A greedy packer covers machine counts outside the n ≡ 3 (mod 6) family.
package placement

import (
	"errors"
	"fmt"
)

// ErrPlacement reports invalid placement parameters.
var ErrPlacement = errors.New("placement: invalid")

// Triangle is one guest VM's replica placement: three distinct machines.
type Triangle [3]int

// Contains reports whether machine v is one of the triangle's vertices —
// the residency test lifecycle operations (replacement validation, drain
// and crash evacuation) share.
func (t Triangle) Contains(v int) bool {
	return t[0] == v || t[1] == v || t[2] == v
}

// normalize returns the triangle with sorted vertices.
func (t Triangle) normalize() Triangle {
	a, b, c := t[0], t[1], t[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return Triangle{a, b, c}
}

// edges returns the triangle's three undirected edges, each normalized.
func (t Triangle) edges() [3][2]int {
	n := t.normalize()
	return [3][2]int{{n[0], n[1]}, {n[0], n[2]}, {n[1], n[2]}}
}

// Quasigroup is an idempotent commutative quasigroup over {0..Order-1},
// realized for odd Order as a∘b = (a+b)·(Order+1)/2 mod Order.
type Quasigroup struct {
	Order int
	half  int
}

// NewQuasigroup builds the quasigroup; Order must be odd and positive.
func NewQuasigroup(order int) (*Quasigroup, error) {
	if order <= 0 || order%2 == 0 {
		return nil, fmt.Errorf("%w: quasigroup order %d must be odd", ErrPlacement, order)
	}
	return &Quasigroup{Order: order, half: (order + 1) / 2}, nil
}

// Op returns a∘b.
func (q *Quasigroup) Op(a, b int) int {
	return ((a + b) * q.half) % q.Order
}

// Theorem1Max returns the size of a maximum packing of K_n with pairwise
// edge-disjoint triangles (Horsley, as cited by the paper):
//
//	n odd:  largest k with 3k <= C(n,2) and C(n,2)-3k ∉ {1,2}
//	n even: largest k with 3k <= C(n,2) - n/2
func Theorem1Max(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: n=%d", ErrPlacement, n)
	}
	if n < 3 {
		return 0, nil
	}
	pairs := n * (n - 1) / 2
	if n%2 == 1 {
		k := pairs / 3
		for k > 0 {
			left := pairs - 3*k
			if left != 1 && left != 2 {
				break
			}
			k--
		}
		return k, nil
	}
	return (pairs - n/2) / 3, nil
}

// bose returns the triangle groups G_0..G_v of the Theorem-2 construction
// for n = 6v+3 nodes, identified as (i, level) → i*3+level? No — the proof
// uses Q×{0,1,2}; we map node (a, ℓ) to index a + ℓ·(2v+1).
func bose(n int) (groups [][]Triangle, v int, err error) {
	if n < 3 || n%6 != 3 {
		return nil, 0, fmt.Errorf("%w: Theorem 2 needs n ≡ 3 (mod 6), got %d", ErrPlacement, n)
	}
	v = (n - 3) / 6
	m := 2*v + 1
	q, err := NewQuasigroup(m)
	if err != nil {
		return nil, 0, err
	}
	node := func(a, level int) int { return a + level*m }

	g0 := make([]Triangle, 0, m)
	for i := 0; i < m; i++ {
		g0 = append(g0, Triangle{node(i, 0), node(i, 1), node(i, 2)})
	}
	groups = append(groups, g0)
	for t := 1; t <= v; t++ {
		gt := make([]Triangle, 0, 3*m)
		for i := 0; i < m; i++ {
			j := (i + t) % m
			for l := 0; l < 3; l++ {
				gt = append(gt, Triangle{node(i, l), node(j, l), node(q.Op(i, j), (l+1)%3)})
			}
		}
		groups = append(groups, gt)
	}
	return groups, v, nil
}

// Placement is a set of guest placements on a cluster.
type Placement struct {
	N         int
	Capacity  int
	Triangles []Triangle
}

// Guests returns the number of simultaneously placeable guest VMs.
func (p *Placement) Guests() int { return len(p.Triangles) }

// Verify checks the StopWatch constraints: triangles use distinct in-range
// vertices, are pairwise edge-disjoint (the nonoverlap constraint), and
// respect the per-machine capacity (if Capacity > 0).
func (p *Placement) Verify() error {
	edges := make(map[[2]int]bool)
	load := make([]int, p.N)
	for _, t := range p.Triangles {
		if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			return fmt.Errorf("%w: degenerate triangle %v", ErrPlacement, t)
		}
		for _, vtx := range t {
			if vtx < 0 || vtx >= p.N {
				return fmt.Errorf("%w: vertex %d out of range", ErrPlacement, vtx)
			}
			load[vtx]++
		}
		for _, e := range t.edges() {
			if edges[e] {
				return fmt.Errorf("%w: edge %v reused — replicas overlap", ErrPlacement, e)
			}
			edges[e] = true
		}
	}
	if p.Capacity > 0 {
		for i, l := range load {
			if l > p.Capacity {
				return fmt.Errorf("%w: machine %d runs %d > capacity %d guests", ErrPlacement, i, l, p.Capacity)
			}
		}
	}
	return nil
}

// Theorem2Guests returns the guest count Theorem 2 guarantees for n
// machines of capacity c (n ≡ 3 mod 6, c <= (n-1)/2):
//
//	c ≡ 0,1 (mod 3): k = c·n/3
//	c ≡ 2   (mod 3): k = (c-1)·n/3 + (n-3)/6
func Theorem2Guests(n, c int) (int, error) {
	if n < 3 || n%6 != 3 {
		return 0, fmt.Errorf("%w: n=%d must be ≡ 3 (mod 6)", ErrPlacement, n)
	}
	if c < 1 || c > (n-1)/2 {
		return 0, fmt.Errorf("%w: capacity c=%d must be in [1, (n-1)/2]", ErrPlacement, c)
	}
	switch c % 3 {
	case 0, 1:
		return c * n / 3, nil
	default:
		return (c-1)*n/3 + (n-3)/6, nil
	}
}

// PlaceTheorem2 constructs the Theorem-2 placement for n machines with
// per-machine capacity c.
func PlaceTheorem2(n, c int) (*Placement, error) {
	want, err := Theorem2Guests(n, c)
	if err != nil {
		return nil, err
	}
	groups, v, err := bose(n)
	if err != nil {
		return nil, err
	}
	m := 2*v + 1
	var tris []Triangle
	switch c % 3 {
	case 0:
		for t := 1; t <= c/3; t++ {
			tris = append(tris, groups[t]...)
		}
	case 1:
		tris = append(tris, groups[0]...)
		for t := 1; t <= (c-1)/3; t++ {
			tris = append(tris, groups[t]...)
		}
	case 2:
		tris = append(tris, groups[0]...)
		for t := 1; t <= (c-2)/3; t++ {
			tris = append(tris, groups[t]...)
		}
		// v = (n-3)/6 triangles from G_v visiting each node at most once:
		// {(a_i,0), (a_{i+v},0), (a_i ∘ a_{i+v}, 1)} for 0 <= i < v.
		q, err := NewQuasigroup(m)
		if err != nil {
			return nil, err
		}
		node := func(a, level int) int { return a + level*m }
		for i := 0; i < v; i++ {
			j := (i + v) % m
			tris = append(tris, Triangle{node(i, 0), node(j, 0), node(q.Op(i, j), 1)})
		}
	}
	p := &Placement{N: n, Capacity: c, Triangles: tris}
	if len(tris) != want {
		return nil, fmt.Errorf("%w: construction yielded %d triangles, want %d", ErrPlacement, len(tris), want)
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// GreedyPack packs edge-disjoint triangles into K_n greedily (lexicographic
// scan), respecting capacity c if positive. It works for any n and lands
// within a constant factor of the maximum — the practical fallback for
// cluster sizes outside the Theorem-2 family.
func GreedyPack(n, c int) (*Placement, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrPlacement, n)
	}
	used := make(map[[2]int]bool)
	load := make([]int, n)
	var tris []Triangle
	edge := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if used[edge(a, b)] {
				continue
			}
			for d := b + 1; d < n; d++ {
				if used[edge(a, d)] || used[edge(b, d)] {
					continue
				}
				if c > 0 && (load[a] >= c || load[b] >= c || load[d] >= c) {
					continue
				}
				used[edge(a, b)] = true
				used[edge(a, d)] = true
				used[edge(b, d)] = true
				load[a]++
				load[b]++
				load[d]++
				tris = append(tris, Triangle{a, b, d})
				break
			}
		}
	}
	return &Placement{N: n, Capacity: c, Triangles: tris}, nil
}

// UtilizationRow compares placement strategies for one (n, c) point.
type UtilizationRow struct {
	N, C            int
	Theorem2        int     // guests by the constructive algorithm
	Greedy          int     // guests by greedy packing at same capacity
	Isolated        int     // guests when each runs alone on one machine
	Theorem1Bound   int     // max triangles ignoring capacity
	UtilizationGain float64 // Theorem2 / Isolated
}

// UtilizationTable evaluates the Theorem-2 family for the given n values
// at capacity c(n) = (n-1)/2, the maximum the theorem allows.
func UtilizationTable(ns []int) ([]UtilizationRow, error) {
	rows := make([]UtilizationRow, 0, len(ns))
	for _, n := range ns {
		c := (n - 1) / 2
		p, err := PlaceTheorem2(n, c)
		if err != nil {
			return nil, err
		}
		g, err := GreedyPack(n, c)
		if err != nil {
			return nil, err
		}
		t1, err := Theorem1Max(n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, UtilizationRow{
			N:               n,
			C:               c,
			Theorem2:        p.Guests(),
			Greedy:          g.Guests(),
			Isolated:        n,
			Theorem1Bound:   t1,
			UtilizationGain: float64(p.Guests()) / float64(n),
		})
	}
	return rows, nil
}
