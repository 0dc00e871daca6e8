// Command stopwatch-sim is the one way to drive a fleet: it runs (or just
// statically checks) declarative scenario files — a cloud, its guest mix
// and traffic, a script and seeded generators of lifecycle events and
// faults, and the assertions and digest pins the run must meet. See
// scenarios/ and the README's "Scenarios" section; the paper's figures live
// in cmd/experiments.
//
// Usage:
//
//	stopwatch-sim validate scenarios/
//	stopwatch-sim run scenarios/lifecycle.yaml
//	stopwatch-sim run -ci -q scenarios/
//	stopwatch-sim run -seed 2 -shards 4 -listen 127.0.0.1:8080 scenarios/churn.yaml
//	stopwatch-sim run -q -seed 1 -metrics-out metrics.json -cpuprofile cpu.prof scenarios/churn-large.yaml
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"stopwatch/internal/profiling"
	"stopwatch/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stopwatch-sim:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: stopwatch-sim run [flags] <file|dir>... | stopwatch-sim validate <file|dir>...")

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "run":
		return runScenarioFiles(args[1:], out)
	case "validate":
		return validateScenarioFiles(args[1:], out)
	}
	return fmt.Errorf("unknown subcommand %q\n%w", args[0], errUsage)
}

// expandScenarioPaths resolves each argument to scenario files: a
// directory expands to its *.yaml/*.yml entries, sorted.
func expandScenarioPaths(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			switch filepath.Ext(e.Name()) {
			case ".yaml", ".yml":
				files = append(files, filepath.Join(arg, e.Name()))
			}
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario files given\n%w", errUsage)
	}
	return files, nil
}

// runScenarioFiles executes scenario files under every declared seed (or
// one -seed override), printing a per-run verdict and failing if any run
// does — or if nothing was selected to run.
func runScenarioFiles(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("stopwatch-sim run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 0, "override the scenario's seeds (0 = run every declared seed)")
	shards := fs.Int("shards", 0, "override the fleet's shard count (0 = the file's; digests are identical for every value)")
	listen := fs.String("listen", "", "serve /metrics, /metrics.json, /ops and /ops/stream on this loopback address during the run")
	quiet := fs.Bool("q", false, "suppress the op-stream narration")
	ciOnly := fs.Bool("ci", false, "run only scenarios tagged ci: true")
	noReconcile := fs.Bool("no-reconcile", false, "disable the pre-view-commit survivor reconcile round (failure-injection experiments)")
	metricsOut := fs.String("metrics-out", "", "write the end-of-run metrics snapshot as canonical JSON to this file (needs exactly one run: one file, one seed)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the runs to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files, err := expandScenarioPaths(fs.Args())
	if err != nil {
		return err
	}
	type selected struct {
		sc   *scenario.Scenario
		seed uint64
	}
	var runs []selected
	for _, path := range files {
		sc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		if *ciOnly && !sc.CI {
			continue
		}
		seeds := sc.Seeds
		if *seed != 0 {
			seeds = []uint64{*seed}
		}
		for _, s := range seeds {
			runs = append(runs, selected{sc, s})
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no scenario selected to run out of %d file(s) (-ci keeps only files tagged ci: true)", len(files))
	}
	if *metricsOut != "" && len(runs) != 1 {
		return fmt.Errorf("-metrics-out needs exactly one run, got %d: name one file and one -seed", len(runs))
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	failed := 0
	for _, run := range runs {
		opt := scenario.Options{Seed: run.seed, Shards: *shards, Listen: *listen, DisableReconcile: *noReconcile}
		if !*quiet {
			opt.Out = out
		}
		res, err := scenario.Run(run.sc, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", run.sc.Path, err)
		}
		verdict := "PASS"
		if !res.Passed() {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "%s  %s seed=%d shards=%d ops=%d digest=%s\n",
			verdict, res.Name, res.Seed, res.Shards, res.Ops, res.Digest)
		for _, f := range res.Failures {
			fmt.Fprintf(out, "  - %s\n", f)
		}
		if *metricsOut != "" {
			if err := os.WriteFile(*metricsOut, []byte(res.Metrics), 0o644); err != nil {
				return fmt.Errorf("write metrics snapshot: %w", err)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario run(s) failed", failed)
	}
	return nil
}

// validateScenarioFiles parses and statically checks scenario files
// without running them.
func validateScenarioFiles(args []string, out io.Writer) error {
	files, err := expandScenarioPaths(args)
	if err != nil {
		return err
	}
	bad := 0
	for _, path := range files {
		sc, err := scenario.Load(path)
		if err == nil {
			err = sc.Validate()
		}
		if err != nil {
			bad++
			fmt.Fprintf(out, "INVALID %s\n%v\n", path, err)
			continue
		}
		fmt.Fprintf(out, "ok %s\n", path)
	}
	if bad > 0 {
		return fmt.Errorf("%d scenario file(s) invalid", bad)
	}
	return nil
}
