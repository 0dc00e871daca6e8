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
//	stopwatch-sim run -q -seed 1-40 scenarios/
//	stopwatch-sim run -seed 2 -shards 4 scenarios/churn.yaml
//	stopwatch-sim run -q -seed 1 -metrics-out metrics.json scenarios/churn-large.yaml
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// seedSet is the -seed flag: numbers and inclusive ranges, comma-separated
// ("1-40", "3,7,11-13"), held sorted and without repeats. Empty means each
// file's declared seeds.
type seedSet []uint64

func (s *seedSet) String() string { return fmt.Sprint([]uint64(*s)) }

func (s *seedSet) Set(v string) error {
	var set seedSet
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		first, err := strconv.ParseUint(lo, 10, 64)
		last := first
		if err == nil && isRange {
			last, err = strconv.ParseUint(hi, 10, 64)
		}
		if err != nil || first == 0 || last < first {
			return fmt.Errorf("bad seed set %q: want seeds >= 1 and ascending ranges, e.g. 1-40 or 3,7,11-13", v)
		}
		for seed := first; ; seed++ {
			set = append(set, seed)
			if seed == last {
				break
			}
		}
	}
	slices.Sort(set)
	*s = slices.Compact(set)
	return nil
}

// runScenarioFiles executes scenario files under their declared seeds or
// the -seed set, printing a verdict per run and a clean count per file. It
// fails if a seed outside the file's failing_seeds fails (an invariant, or
// an assertion at a declared seed), or if a listed seed comes out clean.
func runScenarioFiles(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stopwatch-sim run", flag.ContinueOnError)
	var seeds seedSet
	fs.Var(&seeds, "seed", "run these seeds instead of each file's declared ones: numbers and ranges, e.g. 1-40 or 3,7,11-13")
	shards := fs.Int("shards", 0, "the fabric shard count (0 = 1; digests are identical for every value)")
	quiet := fs.Bool("q", false, "suppress the op-stream narration")
	noReconcile := fs.Bool("no-reconcile", false, "disable the pre-view-commit survivor reconcile round (failure-injection experiments)")
	metricsOut := fs.String("metrics-out", "", "write the end-of-run metrics snapshot as canonical JSON to this file (needs exactly one run: one file, one seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files, err := expandScenarioPaths(fs.Args())
	if err != nil {
		return err
	}
	seedsOf := func(sc *scenario.Scenario) []uint64 {
		if len(seeds) == 0 {
			return sc.Seeds
		}
		return seeds
	}
	var scs []*scenario.Scenario
	for _, path := range files {
		sc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		scs = append(scs, sc)
	}
	if *metricsOut != "" && (len(scs) != 1 || len(seedsOf(scs[0])) != 1) {
		return fmt.Errorf("-metrics-out needs exactly one run: name one file and one -seed")
	}
	opt := scenario.Options{Shards: *shards, DisableReconcile: *noReconcile}
	if !*quiet {
		opt.Out = out
	}
	var unexpected []string
	for _, sc := range scs {
		bad, last, err := sweep(sc, seedsOf(sc), opt, out)
		if err != nil {
			return err
		}
		unexpected = append(unexpected, bad...)
		if *metricsOut != "" {
			if err := os.WriteFile(*metricsOut, []byte(last.Metrics), 0o644); err != nil {
				return fmt.Errorf("write metrics snapshot: %w", err)
			}
		}
	}
	if len(unexpected) > 0 {
		return fmt.Errorf("%d unexpected outcome(s): %s", len(unexpected), strings.Join(unexpected, "; "))
	}
	return nil
}

// sweep runs one file at each seed and prints each run's verdict, then the
// file's line: clean k/N, the number of distinct op-log digests over the N
// seeds (1/N: the seed moved nothing the log records), and the failing
// seeds grouped by their first failure. A seed in failing_seeds is expected
// to fail (XFAIL); clean, it is an XPASS. It returns the outcomes the file
// did not expect, and the last run's result.
func sweep(sc *scenario.Scenario, seeds []uint64, opt scenario.Options, out io.Writer) ([]string, *scenario.Result, error) {
	var unexpected, reasons []string
	var res *scenario.Result
	bySeed := map[string][]string{}
	digests := map[string]bool{}
	clean := 0
	for _, seed := range seeds {
		opt.Seed = seed
		var err error
		if res, err = scenario.Run(sc, opt); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sc.Path, err)
		}
		listed := slices.Contains(sc.FailingSeeds, seed)
		verdict := "PASS"
		switch {
		case !res.Passed() && listed:
			verdict = "XFAIL"
		case !res.Passed():
			verdict = "FAIL"
			unexpected = append(unexpected, fmt.Sprintf("%s seed %d failed", sc.Name, seed))
		case listed:
			verdict = "XPASS"
			unexpected = append(unexpected, fmt.Sprintf("%s seed %d is in failing_seeds but came out clean: take it off the list", sc.Name, seed))
		}
		fmt.Fprintf(out, "%s  %s seed=%d shards=%d ops=%d digest=%s\n",
			verdict, res.Name, res.Seed, res.Shards, res.Ops, res.Digest)
		digests[res.Digest] = true
		for _, f := range res.Failures {
			fmt.Fprintf(out, "  - %s\n", f)
		}
		if res.Passed() {
			clean++
			continue
		}
		reason, _, _ := strings.Cut(res.Failures[0], ":")
		if bySeed[reason] == nil {
			reasons = append(reasons, reason)
		}
		bySeed[reason] = append(bySeed[reason], strconv.FormatUint(seed, 10))
	}
	line := fmt.Sprintf("%s: clean %d/%d; op-log digests %d/%d", sc.Name, clean, len(seeds), len(digests), len(seeds))
	for _, reason := range reasons {
		line += fmt.Sprintf("; %s at %s", reason, strings.Join(bySeed[reason], " "))
	}
	fmt.Fprintln(out, line)
	return unexpected, res, nil
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
