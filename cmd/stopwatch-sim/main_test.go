package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stopwatch/internal/scenario"
)

// runQuiet is the CLI entry with its output discarded.
func runQuiet(args ...string) error { return run(args, io.Discard) }

func TestRunRejectsUnknowns(t *testing.T) {
	invalid := filepath.Join(t.TempDir(), "small.yaml")
	if err := os.WriteFile(invalid, []byte("name: small\nduration_ms: 300\nfleet:\n  machines: 2\n  guests:\n    - name: g\n      app:\n        kind: beacon\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{},                           // no subcommand: usage
		{"-scenario", "download"},    // the legacy drivers are scenario files now
		{"bogus"},                    // unknown subcommand
		{"run"},                      // no files
		{"validate"},                 // no files
		{"run", "no-such-file.yaml"}, // missing file
		{"run", "-nonflag", corpusDir},
		{"run", "-q", invalid}, // parses, but a fleet needs three machines
	} {
		if err := runQuiet(args...); err == nil {
			t.Fatalf("args %v should fail", args)
		}
	}
}

// TestSeedSetGrammar: -seed takes numbers and inclusive ranges,
// comma-separated, and refuses a zero seed, a descending range and an empty
// set.
func TestSeedSetGrammar(t *testing.T) {
	var oneToForty []uint64
	for s := uint64(1); s <= 40; s++ {
		oneToForty = append(oneToForty, s)
	}
	for v, want := range map[string]string{
		"1-40":      fmt.Sprint(oneToForty),
		"3,7,11-13": "[3 7 11 12 13]",
		"2":         "[2]",
		"5,1-3,2":   "[1 2 3 5]",
	} {
		var s seedSet
		if err := s.Set(v); err != nil || s.String() != want {
			t.Errorf("seed set %q = %v (%v), want %s", v, s, err, want)
		}
	}
	for _, v := range []string{"0", "5-3", "", "1,", "-4", "1-", "0-3", "x"} {
		var s seedSet
		if err := s.Set(v); err == nil {
			t.Errorf("seed set %q accepted as %v", v, s)
		}
	}
}

// TestSweepHoldsFailingSeeds: a sweep fails on a seed that breaks an
// invariant unless failing_seeds lists it, and on a listed seed that comes
// out clean, naming the seed; a listed seed that fails is the expected
// outcome.
func TestSweepHoldsFailingSeeds(t *testing.T) {
	const tiny = `name: tiny
duration_ms: 300
%s
fleet:
  machines: 3
  guests:
    - name: g
      app:
        kind: beacon
invariants:
  - check: stats
    field: admitted
    min: %d
`
	for _, tc := range []struct {
		name, failing string
		admitted      int
		clean         string
		want          string // "" = the sweep passes
	}{
		{"listed seed clean", "failing_seeds: [2]", 1, "tiny: clean 1/1; op-log digests 1/1", "tiny seed 2 is in failing_seeds but came out clean"},
		{"unlisted seed failing", "", 2, "tiny: clean 0/1; op-log digests 1/1", "tiny seed 2 failed"},
		{"listed seed failing", "failing_seeds: [2]", 2, "tiny: clean 0/1; op-log digests 1/1", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tiny.yaml")
			if err := os.WriteFile(path, []byte(fmt.Sprintf(tiny, tc.failing, tc.admitted)), 0o644); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			err := run([]string{"run", "-q", "-seed", "2", path}, &out)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("sweep failed: %v\n%s", err, &out)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("sweep error = %v, want one containing %q\n%s", err, tc.want, &out)
			}
			if !strings.Contains(out.String(), tc.clean) {
				t.Fatalf("output lacks %q:\n%s", tc.clean, &out)
			}
		})
	}
}

// TestRunMetricsOut: -metrics-out writes the one run's canonical snapshot,
// and refuses a selection of several runs rather than keeping the last.
func TestRunMetricsOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	churn := filepath.Join(corpusDir, "churn.yaml")
	if err := runQuiet("run", "-q", "-metrics-out", out, churn); err == nil {
		t.Fatal("-metrics-out accepted three seeds")
	}
	if err := runQuiet("run", "-q", "-seed", "1", "-metrics-out", out, churn); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), `"stopwatch_cp_ops_completed_total"`) {
		t.Fatalf("snapshot lacks the control-plane families:\n%s", got)
	}
}

const corpusDir = "../../scenarios"

// corpusFiles lists the shipped scenario corpus.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".yaml" {
			files = append(files, filepath.Join(corpusDir, e.Name()))
		}
	}
	if len(files) < 5 {
		t.Fatalf("corpus has only %d scenario files", len(files))
	}
	return files
}

// TestValidateAllCorpus: every shipped scenario parses and passes every
// static check, via the same subcommand CI uses.
func TestValidateAllCorpus(t *testing.T) {
	if err := runQuiet("validate", corpusDir); err != nil {
		t.Fatal(err)
	}
}

// TestRunLifecycle: the converted lifecycle walkthrough — the detector-
// driven machine failure, the scripted migration, the checkpointed
// journals — runs end-to-end with every assertion green, through the run
// subcommand.
func TestRunLifecycle(t *testing.T) {
	if err := runQuiet("run", "-q", filepath.Join(corpusDir, "lifecycle.yaml")); err != nil {
		t.Fatal(err)
	}
}

// TestLossyViewChangeNeedsReconcile: the lossy-view-change repro is green
// only because of the pre-view-commit survivor reconcile round. With the
// round force-disabled (the -no-reconcile experiment) the split proposal
// deliveries wedge one survivor through the view change, the evacuation
// never quiesces and the scenario fails on exactly the designed
// signature: strict-lockstep divergence and zeroed reconcile counters.
func TestLossyViewChangeNeedsReconcile(t *testing.T) {
	sc, err := scenario.Load(filepath.Join(corpusDir, "lossy-view-change.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sc, scenario.Options{Seed: 1, DisableReconcile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("scenario passed with the reconcile round disabled")
	}
	for _, want := range []string{
		"lockstep assertion srv",
		"stats assertion crash_evacuations: 0 below min 1",
		"stats assertion reconcile_repairs: 0 below min 1",
	} {
		found := false
		for _, f := range res.Failures {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("failures = %v, want one containing %q", res.Failures, want)
		}
	}
}

// TestScenarioDigestsStable: every CI-tagged scenario, under every
// declared seed, produces its pinned op-log digest — and the same digest
// and a byte-equal end-of-run metrics snapshot for 1, 2 and 4 fabric
// shards. A change in any pin is a change in
// control-plane behavior and must be made deliberately (re-pin with
// `stopwatch-sim run scenarios/`).
func TestScenarioDigestsStable(t *testing.T) {
	for _, path := range corpusFiles(t) {
		sc, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.CI {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel() // files are independent; the churn ones dominate
			for _, seed := range sc.Seeds {
				pin := sc.Digests[seed]
				if pin == "" {
					t.Errorf("seed %d has no digest pin", seed)
					continue
				}
				var metrics string
				for _, shards := range []int{1, 2, 4} {
					res, err := scenario.Run(sc, scenario.Options{Seed: seed, Shards: shards})
					if err != nil {
						t.Fatalf("seed=%d shards=%d: %v", seed, shards, err)
					}
					for _, f := range res.Failures {
						t.Errorf("seed=%d shards=%d: %s", seed, shards, f)
					}
					if res.Digest != pin {
						t.Errorf("seed=%d shards=%d: digest %s, pinned %s", seed, shards, res.Digest, pin)
					}
					if shards == 1 {
						metrics = res.Metrics
					} else if res.Metrics != metrics {
						t.Errorf("seed=%d shards=%d: end-of-run metrics differ from one shard's", seed, shards)
					}
				}
			}
		})
	}
}
