package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// loadCorpus loads one shipped scenario file.
func loadCorpus(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, err := Load(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// variant returns a copy of sc the caller may edit without touching the
// loaded file's slices.
func variant(sc *Scenario) *Scenario {
	v := *sc
	v.Generators = append([]Generator(nil), sc.Generators...)
	v.Invariants = append([]Assertion(nil), sc.Invariants...)
	v.Assertions = append([]Assertion(nil), sc.Assertions...)
	return &v
}

func mustPass(t *testing.T, sc *Scenario, opt Options) *Result {
	t.Helper()
	res, err := Run(sc, opt)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sc.Name, opt.Seed, err)
	}
	for _, f := range res.Failures {
		t.Errorf("%s seed %d: %s", sc.Name, opt.Seed, f)
	}
	return res
}

// TestChurnDigestsUnchangedWithCheckpointing: periodic journal checkpoints
// (and hence truncated replay on every replacement) leave the three pinned
// churn op logs byte-identical. A checkpoint captures what the replicas
// already agree on; restoring from it instead of replaying a lifetime must
// be unobservable in what the cloud computes.
func TestChurnDigestsUnchangedWithCheckpointing(t *testing.T) {
	sc := variant(loadCorpus(t, "churn.yaml"))
	if sc.Fleet.CheckpointInstr != 0 {
		t.Fatal("churn.yaml already checkpoints: the off side of this comparison is gone")
	}
	sc.Fleet.CheckpointInstr = 1_000_000
	sc.Assertions = append(sc.Assertions, Assertion{Check: "journal", Guest: "all", MinCheckpoints: 1})
	for _, seed := range sc.Seeds {
		r, err := start(sc, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Failures { // the digest pin is one of the checks
			t.Errorf("seed %d: %s", seed, f)
		}
		truncated := 0
		for _, id := range r.cp.Pool().IDs() {
			if g, ok := r.c.Guest(id); ok {
				truncated += g.JournalStats().TruncatedRecords
			}
		}
		if truncated == 0 {
			t.Errorf("seed %d: checkpoints never truncated a journal", seed)
		}
	}
}

// TestChurnMetricsGolden pins the canonical end-of-run metrics snapshot of
// each pinned churn seed byte-for-byte, on one shard and on four. The
// snapshot folds in both planes — op counts, phase latency histograms,
// packet counters, proposal latency, disk telemetry — so any drift in what
// the simulation computes (not just the op log) lands here. Regenerate with
// UPDATE_METRICS_GOLDEN=1 go test ./internal/scenario -run Golden.
func TestChurnMetricsGolden(t *testing.T) {
	sc := loadCorpus(t, "churn.yaml")
	for _, seed := range sc.Seeds {
		golden := filepath.Join("testdata", fmt.Sprintf("metrics_seed%d.golden.json", seed))
		for _, shards := range []int{1, 4} {
			got := []byte(mustPass(t, sc, Options{Seed: seed, Shards: shards}).Metrics)
			if os.Getenv("UPDATE_METRICS_GOLDEN") == "1" && shards == 1 {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d shards %d: metrics snapshot drifted from %s\n--- got ---\n%s\n--- want ---\n%s",
					seed, shards, golden, got, want)
			}
		}
	}
}

// TestChurnPlannedMigrationAdmitsMore: on 7 machines at capacity 3 the
// edge-disjointness constraint, not capacity, is what rejects admissions —
// the regime where moving one blocking replica opens a triangle. With
// planned migration the same arrivals must complete migrations and admit
// strictly more tenants, with every placement and lockstep audit clean.
func TestChurnPlannedMigrationAdmitsMore(t *testing.T) {
	sc := variant(loadCorpus(t, "churn-saturated.yaml"))
	sc.Digests = nil
	sc.Fleet.Machines, sc.Fleet.Capacity = 7, 3
	sc.Generators = sc.Generators[:1] // the arrivals
	sc.Generators[0].RatePerS = 6
	sc.Invariants = []Assertion{{Check: "lockstep", Guest: "all", Strict: true}}
	sc.Assertions = nil
	plain := mustPass(t, sc, Options{})
	sc.Fleet.PlannedMigration = true
	planned := mustPass(t, sc, Options{})
	if st := planned.Stats; st.MigrationsPlanned == 0 || st.Migrations == 0 || st.MigrationFailures != 0 {
		t.Fatalf("planner never migrated cleanly: %+v", st)
	}
	if planned.Stats.Admitted <= plain.Stats.Admitted {
		t.Fatalf("planned migration admitted %d <= plain %d — plans unblocked nothing",
			planned.Stats.Admitted, plain.Stats.Admitted)
	}
}
