// Command placement computes and verifies StopWatch replica placements
// (Sec. VIII): edge-disjoint triangle packings of K_n under per-machine
// capacity constraints. (The utilization table across cloud sizes is
// `cmd/experiments -only placement`.)
//
// Usage:
//
//	placement -n 21 -c 5            # Theorem-2 construction
//	placement -n 20 -c 4 -greedy    # greedy packing (any n)
//	placement -n 21 -c 5 -list      # also print every triangle
package main

import (
	"flag"
	"fmt"
	"os"

	"stopwatch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "placement:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("placement", flag.ContinueOnError)
	n := fs.Int("n", 21, "machines in the cloud")
	c := fs.Int("c", 0, "per-machine guest capacity (0 = (n-1)/2)")
	greedy := fs.Bool("greedy", false, "use the greedy packer (works for any n)")
	list := fs.Bool("list", false, "print every placement triangle")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cap := *c
	if cap == 0 {
		cap = (*n - 1) / 2
	}
	var (
		p   *stopwatch.Placement
		err error
	)
	if *greedy {
		p, err = stopwatch.GreedyPack(*n, cap)
	} else {
		p, err = stopwatch.PlaceTheorem2(*n, cap)
	}
	if err != nil {
		return err
	}
	if err := p.Verify(); err != nil {
		return fmt.Errorf("constructed placement failed verification: %w", err)
	}
	max, err := stopwatch.Theorem1Max(*n)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d machines, capacity c=%d\n", *n, cap)
	fmt.Printf("guests placed:        %d (3 replicas each)\n", p.Guests())
	fmt.Printf("isolation baseline:   %d guests\n", *n)
	fmt.Printf("Theorem-1 max (no c): %d triangles\n", max)
	fmt.Printf("utilization gain:     %.2fx over isolation\n", float64(p.Guests())/float64(*n))
	if *list {
		fmt.Println("placements (machine triples):")
		for i, t := range p.Triangles {
			fmt.Printf("  guest %4d → {%d, %d, %d}\n", i, t[0], t[1], t[2])
		}
	}
	return nil
}
