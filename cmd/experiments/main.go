// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-only fig1,fig4,...] [-fast] [-seed N]
//
// Each figure prints its paper-style series to stdout. With -fast the
// simulation-backed experiments run shorter scenarios (useful for smoke
// runs); without it, the full durations are used. -seed replaces the seed of
// the simulated experiments (fig4-7, calib, collab, leader); the analytic
// figures and placement draw nothing, and fig8's Monte Carlo keeps its
// fixed seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"stopwatch/internal/experiment"
	"stopwatch/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated subset: fig1,fig1c,fig4,fig5,fig6,fig7,fig8,placement,calib,collab,leader")
	fast := fs.Bool("fast", false, "shorter simulation runs")
	seed := fs.Uint64("seed", 0, "seed of the simulated experiments fig4,fig5,fig6,fig7,calib,collab,leader (0 = each one's default); fig8's Monte Carlo keeps its fixed seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	type step struct {
		name string
		fn   func() (interface{ Render() string }, error)
	}
	steps := []step{
		{"fig1", func() (interface{ Render() string }, error) {
			return experiment.RunFig1(experiment.DefaultFig1Config())
		}},
		{"fig1c", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultFig1Config()
			cfg.LambdaPrime = 10.0 / 11.0
			return experiment.RunFig1(cfg)
		}},
		{"fig4", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultFig4Config()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			if *fast {
				cfg.Duration = sim.FromSeconds(8)
			}
			return experiment.RunFig4(cfg)
		}},
		{"fig5", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultFig5Config()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			if *fast {
				cfg.Runs = 2
				cfg.SizesKB = []int{1, 10, 100, 1000}
			}
			return experiment.RunFig5(cfg)
		}},
		{"fig6", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultFig6Config()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			if *fast {
				cfg.LoadDuration = sim.FromSeconds(2)
			}
			return experiment.RunFig6(cfg)
		}},
		{"fig7", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultFig7Config()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			return experiment.RunFig7(cfg)
		}},
		{"fig8", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultFig8Config()
			if *fast {
				cfg.Trials = 100
			}
			return experiment.RunFig8(cfg)
		}},
		{"placement", func() (interface{ Render() string }, error) {
			return experiment.RunPlacement()
		}},
		{"calib", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultCalibConfig()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			if *fast {
				cfg.Duration = sim.FromSeconds(5)
				cfg.DeltaNsMS = []float64{2, 8, 16}
			}
			return experiment.RunCalib(cfg)
		}},
		{"collab", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultCollabConfig()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			if *fast {
				cfg.Duration = sim.FromSeconds(8)
			}
			return experiment.RunCollab(cfg)
		}},
		{"leader", func() (interface{ Render() string }, error) {
			cfg := experiment.DefaultLeaderConfig()
			if *seed != 0 {
				cfg.Seed = *seed
			}
			if *fast {
				cfg.Duration = sim.FromSeconds(8)
			}
			return experiment.RunLeader(cfg)
		}},
	}

	// An unknown name is an error before anything runs: `-only fig5,typo`
	// must not spend a minute on fig5 and then report success.
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.name
	}
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			s = strings.TrimSpace(s)
			if !slices.Contains(names, s) {
				return fmt.Errorf("unknown experiment %q in -only=%q (have %s)", s, *only, strings.Join(names, ","))
			}
			want[s] = true
		}
	}

	for _, s := range steps {
		if len(want) > 0 && !want[s.name] {
			continue
		}
		fmt.Fprintf(out, "==== %s ====\n", s.name)
		r, err := s.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(out, r.Render())
	}
	return nil
}
