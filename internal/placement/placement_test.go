package placement

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestQuasigroupProperties(t *testing.T) {
	for _, order := range []int{1, 3, 5, 7, 9, 21, 101} {
		q, err := NewQuasigroup(order)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < order; a++ {
			// Idempotent.
			if q.Op(a, a) != a {
				t.Fatalf("order %d: %d∘%d = %d, want idempotent", order, a, a, q.Op(a, a))
			}
			rowSeen := make(map[int]bool, order)
			colSeen := make(map[int]bool, order)
			for b := 0; b < order; b++ {
				// Commutative.
				if q.Op(a, b) != q.Op(b, a) {
					t.Fatalf("order %d: not commutative at (%d,%d)", order, a, b)
				}
				// Latin square: each element once per row and column.
				rowSeen[q.Op(a, b)] = true
				colSeen[q.Op(b, a)] = true
			}
			if len(rowSeen) != order || len(colSeen) != order {
				t.Fatalf("order %d: row/col %d not a permutation", order, a)
			}
		}
	}
	if _, err := NewQuasigroup(4); !errors.Is(err, ErrPlacement) {
		t.Fatal("even order should fail")
	}
	if _, err := NewQuasigroup(0); !errors.Is(err, ErrPlacement) {
		t.Fatal("zero order should fail")
	}
}

// bruteMaxPacking exhaustively computes the max edge-disjoint triangle
// packing of K_n for tiny n.
func bruteMaxPacking(n int) int {
	var tris []Triangle
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				tris = append(tris, Triangle{a, b, c})
			}
		}
	}
	best := 0
	var rec func(i int, used map[[2]int]bool, count int)
	rec = func(i int, used map[[2]int]bool, count int) {
		if count > best {
			best = count
		}
		if i >= len(tris) {
			return
		}
		// Prune: even taking every remaining triangle can't beat best.
		if count+(len(tris)-i) <= best {
			return
		}
		rec(i+1, used, count)
		tr := tris[i]
		es := tr.edges()
		for _, e := range es {
			if used[e] {
				return
			}
		}
		for _, e := range es {
			used[e] = true
		}
		rec(i+1, used, count+1)
		for _, e := range es {
			delete(used, e)
		}
	}
	rec(0, map[[2]int]bool{}, 0)
	return best
}

func TestTheorem1MaxMatchesBruteForce(t *testing.T) {
	for n := 3; n <= 8; n++ {
		want := bruteMaxPacking(n)
		got, err := Theorem1Max(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Theorem1Max(%d) = %d, brute force = %d", n, got, want)
		}
	}
}

func TestTheorem1MaxKnownValues(t *testing.T) {
	// Steiner triple systems exist for n ≡ 1,3 (mod 6): k = n(n-1)/6.
	cases := []struct{ n, want int }{
		{3, 1}, {7, 7}, {9, 12}, {13, 26}, {15, 35},
		{4, 1}, {6, 4}, {0, 0}, {2, 0},
	}
	for _, c := range cases {
		got, err := Theorem1Max(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Theorem1Max(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if _, err := Theorem1Max(-1); !errors.Is(err, ErrPlacement) {
		t.Fatal("negative n should fail")
	}
}

func TestTheorem2AllResiduesAndVerify(t *testing.T) {
	for _, n := range []int{9, 15, 21, 27, 33} {
		maxC := (n - 1) / 2
		for c := 1; c <= maxC; c++ {
			p, err := PlaceTheorem2(n, c)
			if err != nil {
				t.Fatalf("PlaceTheorem2(%d,%d): %v", n, c, err)
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("verify(%d,%d): %v", n, c, err)
			}
			want, err := Theorem2Guests(n, c)
			if err != nil {
				t.Fatal(err)
			}
			if p.Guests() != want {
				t.Fatalf("n=%d c=%d: %d guests, want %d", n, c, p.Guests(), want)
			}
			// Θ(cn) utilization: k = cn/3 (±) passes isolation once c > 3.
			if c >= 4 && p.Guests() <= n {
				t.Fatalf("n=%d c=%d: %d guests not better than isolation", n, c, p.Guests())
			}
		}
	}
}

func TestTheorem2Errors(t *testing.T) {
	if _, err := PlaceTheorem2(10, 2); !errors.Is(err, ErrPlacement) {
		t.Fatal("n not ≡ 3 mod 6 should fail")
	}
	if _, err := PlaceTheorem2(9, 0); !errors.Is(err, ErrPlacement) {
		t.Fatal("c=0 should fail")
	}
	if _, err := PlaceTheorem2(9, 5); !errors.Is(err, ErrPlacement) {
		t.Fatal("c > (n-1)/2 should fail")
	}
	if _, err := Theorem2Guests(8, 1); !errors.Is(err, ErrPlacement) {
		t.Fatal("Theorem2Guests bad n should fail")
	}
}

func TestGreedyPackValidAndDecent(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 7, 9, 10, 12, 15, 20, 30} {
		p, err := GreedyPack(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("greedy verify n=%d: %v", n, err)
		}
		max, err := Theorem1Max(n)
		if err != nil {
			t.Fatal(err)
		}
		if max > 0 && p.Guests() < max/2 {
			t.Fatalf("greedy n=%d packed %d < half of max %d", n, p.Guests(), max)
		}
	}
}

func TestGreedyPackRespectsCapacity(t *testing.T) {
	p, err := GreedyPack(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	load := make([]int, 12)
	for _, tr := range p.Triangles {
		for _, v := range tr {
			load[v]++
		}
	}
	for i, l := range load {
		if l > 2 {
			t.Fatalf("machine %d over capacity: %d", i, l)
		}
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	bad := &Placement{N: 5, Triangles: []Triangle{{0, 1, 2}, {0, 1, 3}}}
	if err := bad.Verify(); !errors.Is(err, ErrPlacement) {
		t.Fatal("edge reuse not caught")
	}
	bad = &Placement{N: 5, Triangles: []Triangle{{0, 0, 2}}}
	if err := bad.Verify(); !errors.Is(err, ErrPlacement) {
		t.Fatal("degenerate triangle not caught")
	}
	bad = &Placement{N: 3, Triangles: []Triangle{{0, 1, 7}}}
	if err := bad.Verify(); !errors.Is(err, ErrPlacement) {
		t.Fatal("out-of-range vertex not caught")
	}
	bad = &Placement{N: 4, Capacity: 1, Triangles: []Triangle{{0, 1, 2}, {0, 2, 3}}}
	if err := bad.Verify(); !errors.Is(err, ErrPlacement) {
		t.Fatal("capacity violation not caught")
	}
}

func TestUtilizationTable(t *testing.T) {
	rows, err := UtilizationTable([]int{9, 15, 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Theorem2 <= r.Isolated {
			t.Fatalf("n=%d: Theorem2 %d should beat isolation %d", r.N, r.Theorem2, r.Isolated)
		}
		if r.Theorem2 > r.Theorem1Bound {
			t.Fatalf("n=%d: Theorem2 %d exceeds Theorem1 bound %d", r.N, r.Theorem2, r.Theorem1Bound)
		}
		if r.UtilizationGain <= 1 {
			t.Fatalf("n=%d: gain %v", r.N, r.UtilizationGain)
		}
	}
}

// Property: Theorem-2 placements for random valid (n,c) are always valid
// and match the formula; quasigroup ops stay in range.
func TestTheorem2Property(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		v := int(nRaw%10) + 1 // v in 1..10 → n in 9..63
		n := 6*v + 3
		maxC := (n - 1) / 2
		c := int(cRaw)%maxC + 1
		p, err := PlaceTheorem2(n, c)
		if err != nil {
			return false
		}
		if p.Verify() != nil {
			return false
		}
		want, err := Theorem2Guests(n, c)
		if err != nil {
			return false
		}
		return p.Guests() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleNormalizeAndEdges(t *testing.T) {
	tr := Triangle{5, 1, 3}
	n := tr.normalize()
	if n != (Triangle{1, 3, 5}) {
		t.Fatalf("normalize = %v", n)
	}
	es := tr.edges()
	want := [3][2]int{{1, 3}, {1, 5}, {3, 5}}
	if es != want {
		t.Fatalf("edges = %v", es)
	}
}
