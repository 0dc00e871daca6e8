package experiment

import (
	"fmt"
	"strings"

	"stopwatch/internal/placement"
)

// placementNs are the Sec.-VIII table's cluster sizes (each ≡ 3 mod 6): the
// theorem family across two decades.
var placementNs = []int{9, 15, 21, 27, 33, 63, 99, 153}

// PlacementResult wraps the utilization table.
type PlacementResult struct {
	Rows []placement.UtilizationRow
}

// RunPlacement builds and verifies the Theorem-2 placements and the greedy
// comparison for each n, at the maximum capacity (n-1)/2.
func RunPlacement() (*PlacementResult, error) {
	rows, err := placement.UtilizationTable(placementNs)
	if err != nil {
		return nil, err
	}
	return &PlacementResult{Rows: rows}, nil
}

// Render prints the Sec.-VIII table.
func (r *PlacementResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec VIII: replica placement utilization (Theorems 1-2)\n")
	fmt.Fprintf(&b, "%6s %5s %10s %8s %9s %10s %8s\n",
		"n", "c", "Theorem2", "greedy", "isolated", "Thm1 max", "gain")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %5d %10d %8d %9d %10d %8.2f\n",
			row.N, row.C, row.Theorem2, row.Greedy, row.Isolated, row.Theorem1Bound, row.UtilizationGain)
	}
	return b.String()
}
