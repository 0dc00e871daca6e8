package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// minimal wraps a fleet/events/assertions body in a valid scenario head.
const head = "name: t\ndescription: d\nduration_ms: 2000\n"

const goodFleet = `fleet:
  machines: 6
  capacity: 3
  guests:
    - name: g
      count: 2
      app:
        kind: beacon
        period_ms: 5
`

func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	sc, err := Parse("test.yaml", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return sc
}

// wantErr parses (and, when parsing succeeds, validates) the document and
// requires the exact golden message.
func wantErr(t *testing.T, src, want string) {
	t.Helper()
	sc, err := Parse("test.yaml", []byte(src))
	if err == nil {
		err = sc.Validate()
	}
	if err == nil {
		t.Fatalf("document accepted, want error %q", want)
	}
	for _, line := range strings.Split(err.Error(), "\n") {
		if line == want {
			return
		}
	}
	t.Fatalf("error = %q, want golden line %q", err, want)
}

func TestDecodeFullDocument(t *testing.T) {
	sc := mustParse(t, `# a comment
name: full
description: "quoted: description"
duration_ms: 3000
seeds: [1, 2]
failing_seeds: [5, 3]
ci: true
digests:
  1: 0123456789abcdef
fleet:
  machines: 9
  capacity: 3
  checkpoint_instr: 2000000
  stall_detector: true
  planned_migration: true
  guests:
    - name: g
      count: 2
      app:
        kind: beacon
        period_ms: 5
        compute: 500000
        disk_kb: 64
        sink: sink
      traffic:
        kind: pings
        period_ms: 20
        from: probe
    - name: v
      count: 1
      app:
        kind: fileserver
        transport: udp
      traffic:
        kind: downloads
        period_ms: 100
        size_kb: 32
events:
  - at_ms: 300
    action: admit
    guest: g
    count: 1
  - at_ms: 500
    action: kill-machine
    machine: busiest
    detected: true
    repair_after_ms: 600
  - at_ms: 900
    action: inject-loss
    from: machine:0
    to: machine:1
    prob: 0.25
    duplex: true
invariants:
  - check: lockstep
    guest: all
    strict: true
assertions:
  - check: stats
    field: admitted
    min: 3
  - check: oplog
    op: fail
    detected: true
    min: 1
    within_ms: 500
  - check: lockstep
    guest: all
`)
	if err := sc.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if sc.Name != "full" || !sc.CI || len(sc.Seeds) != 2 || sc.Digests[1] != "0123456789abcdef" {
		t.Fatalf("head decoded wrong: %+v", sc)
	}
	if fmt.Sprint(sc.FailingSeeds) != "[5 3]" || sc.FailingSeedsLine != 6 {
		t.Fatalf("failing_seeds decoded wrong: %v at line %d", sc.FailingSeeds, sc.FailingSeedsLine)
	}
	if len(sc.Invariants) != 1 || !sc.Invariants[0].Strict || len(sc.Assertions) != 3 {
		t.Fatalf("invariants %+v and assertions %+v decoded wrong", sc.Invariants, sc.Assertions)
	}
	f := sc.Fleet
	if f.Machines != 9 || f.CheckpointInstr != 2_000_000 || !f.StallDetector || !f.PlannedMigration {
		t.Fatalf("fleet decoded wrong: %+v", f)
	}
	if f.Guests[1].App.Transport != "udp" || f.Guests[1].Traffic.SizeKB != 32 {
		t.Fatalf("guest spec decoded wrong: %+v", f.Guests[1])
	}
	ev := sc.Events[1]
	if !ev.Busiest || !ev.Detected || ev.RepairAfterMS != 600 {
		t.Fatalf("kill-machine decoded wrong: %+v", ev)
	}
	if fault := sc.Events[2]; fault.Prob != 0.25 || !fault.Duplex || fault.ToAddr != "machine:1" {
		t.Fatalf("inject-loss decoded wrong: %+v", fault)
	}
	a := sc.Assertions[1]
	if a.Op != "fail" || a.Detected == nil || !*a.Detected || a.WithinMS != 500 || *a.Min != 1 {
		t.Fatalf("oplog assertion decoded wrong: %+v", a)
	}
}

func TestDecodeGoldenErrors(t *testing.T) {
	// A JSON document is not a scenario: there is one input format.
	wantErr(t, "{\n  \"name\": \"j\"\n}\n", `test.yaml:1: not a key: value pair: "{"`)
	// Unknown action.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 100
    action: explode
`, `test.yaml:14: unknown action "explode"`)
	// Unknown key on a known action.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 100
    action: evict
    guest: g-0
    force: true
`, `test.yaml:17: unknown evict event key "force" (allowed: at_ms, action, guest)`)
	// Unknown assertion check.
	wantErr(t, head+goodFleet+`assertions:
  - check: vibes
`, `test.yaml:14: unknown check "vibes"`)
	// Unknown app kind.
	wantErr(t, head+`fleet:
  machines: 6
  capacity: 3
  guests:
    - name: g
      count: 1
      app:
        kind: kubernetes
`, `test.yaml:11: unknown app kind "kubernetes" (beacon, fileserver, nfs, probe)`)
	// Missing at_ms.
	wantErr(t, head+goodFleet+`events:
  - action: evict
    guest: g-0
`, `test.yaml:14: event needs at_ms`)
	// Malformed digest pin.
	wantErr(t, head+"digests:\n  1: abc\n"+goodFleet,
		`test.yaml:5: digest for seed 1 must be 16 hex chars`)
	// Malformed output-digest pin.
	wantErr(t, head+"output_digests:\n  1:\n    g-0: abc\n"+goodFleet,
		`test.yaml:6: output digest for guest "g-0" under seed 1 must be 16 hex chars`)
	// Non-seed output-digest key.
	wantErr(t, head+"output_digests:\n  alpha:\n    g-0: 0123456789abcdef\n"+goodFleet,
		`test.yaml:5: output_digests key must be a seed, got "alpha"`)
	// A known-failing seed is a positive integer, in a list.
	wantErr(t, head+"failing_seeds: [4, 0]\n"+goodFleet, `test.yaml:4: failing_seeds must be positive integers, got "0"`)
	wantErr(t, head+"failing_seeds: 4\n"+goodFleet, `test.yaml:4: "failing_seeds" must be a list`)
	// Invariants are assertions: a list, in the same vocabulary.
	wantErr(t, head+goodFleet+"invariants: all\n", `test.yaml:13: invariants must be a list`)
	wantErr(t, head+goodFleet+"invariants:\n  - check: vibes\n", `test.yaml:14: unknown check "vibes"`)
}

// TestDecodeNotFiredAndOutputDigests: the not_fired oplog form and the
// per-guest output-digest pins decode into the schema.
func TestDecodeNotFiredAndOutputDigests(t *testing.T) {
	sc := mustParse(t, head+"output_digests:\n  1:\n    g-0: 0123456789abcdef\n"+goodFleet+`assertions:
  - check: oplog
    op: repair
    not_fired: true
`)
	if err := sc.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if sc.OutputDigests[1]["g-0"] != "0123456789abcdef" {
		t.Fatalf("output digests decoded wrong: %+v", sc.OutputDigests)
	}
	a := sc.Assertions[0]
	if !a.NotFired || a.Min != nil || a.Max != nil {
		t.Fatalf("not_fired assertion decoded wrong: %+v", a)
	}
}

func TestValidateGoldenErrors(t *testing.T) {
	// Events out of order.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 500
    action: evict
    guest: g-0
  - at_ms: 300
    action: evict
    guest: g-1
`, `test.yaml:17: events out of order: at_ms 300 after 500`)
	// Undeclared guest target.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 100
    action: evict
    guest: ghost
`, `test.yaml:14: evict event references undeclared guest "ghost"`)
	// Bare name for a multi-instance spec.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 100
    action: evict
    guest: g
`, `test.yaml:14: evict event: guest spec "g" has 2 instances — reference one as "g-0" etc.`)
	// Instance index beyond the population.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 100
    action: evict
    guest: g-7
`, `test.yaml:14: evict event: guest "g-7" out of range (spec "g" has 2 instances)`)
	// Machine out of range.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 100
    action: drain
    machine: 11
`, `test.yaml:14: drain event: machine 11 out of range (fleet has 6 machines)`)
	// Event beyond the run.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 2500
    action: drain
    machine: 0
`, `test.yaml:14: drain event at_ms 2500 is beyond the scenario duration 2000`)
	// Detected kill without the detector armed.
	wantErr(t, head+goodFleet+`events:
  - at_ms: 100
    action: kill-machine
    machine: 0
    detected: true
`, `test.yaml:14: kill-machine event: detected kill needs fleet stall_detector: true`)
	// within_ms without detected FailOps.
	wantErr(t, head+goodFleet+`assertions:
  - check: oplog
    op: evict
    min: 1
    within_ms: 100
`, `test.yaml:14: oplog assertion: within_ms needs op: fail with detected: true`)
	// Unknown stats counter, in either list.
	for _, list := range []string{"assertions", "invariants"} {
		wantErr(t, head+goodFleet+list+`:
  - check: stats
    field: vibes
    min: 1
`, `test.yaml:14: stats assertion: unknown field "vibes"`)
	}
	// A declared seed is pinned, so it cannot also be listed as failing.
	wantErr(t, head+"seeds: [1, 2]\nfailing_seeds: [3, 2]\n"+goodFleet,
		`test.yaml:5: failing_seeds lists seed 2, which seeds declares: a declared seed's pins must pass`)
	// Coresident arity.
	wantErr(t, head+goodFleet+`assertions:
  - check: coresident
    guests: [g-0]
`, `test.yaml:14: coresident assertion needs exactly 2 guests, got 1`)
	// The scripted replica kill and a placement check are gone: the runner
	// audits placement at the end of every run, and the replica-failures
	// generator is the one source of replica kills. Both fail closed.
	wantErr(t, head+goodFleet+"events:\n  - at_ms: 100\n    action: kill-replica\n    guest: g-0\n", `test.yaml:14: unknown action "kill-replica"`)
	wantErr(t, head+goodFleet+"assertions:\n  - check: placement\n", `test.yaml:14: unknown check "placement"`)
	// Load-aware admission is gone: its action and its fleet key fail closed.
	wantErr(t, head+goodFleet+"events:\n  - at_ms: 100\n    action: saturate-disk\n", `test.yaml:14: unknown action "saturate-disk"`)
	wantErr(t, head+strings.Replace(goodFleet, "  capacity: 3\n", "  capacity: 3\n  load_aware: true\n", 1),
		`test.yaml:7: unknown fleet key "load_aware" (allowed: machines, capacity, checkpoint_instr, stall_detector, planned_migration, guests)`)
	// not_fired combined with a bound.
	wantErr(t, head+goodFleet+`assertions:
  - check: oplog
    op: repair
    not_fired: true
    max: 1
`, `test.yaml:14: oplog assertion: not_fired excludes min/max/within_ms`)
	// An oplog assertion with no bound at all.
	wantErr(t, head+goodFleet+`assertions:
  - check: oplog
    op: repair
`, `test.yaml:14: oplog assertion needs min and/or max (or not_fired: true)`)
	// Output-digest pin for an undeclared instance.
	wantErr(t, head+"output_digests:\n  1:\n    ghost: 0123456789abcdef\n"+goodFleet,
		`test.yaml:1: output_digests seed 1 references undeclared guest "ghost"`)
	// Two seeds pinned to the same value on every stream: op log and output.
	wantErr(t, head+"digests:\n  1: 0123456789abcdef\n  2: 0123456789abcdef\n"+
		"output_digests:\n  1:\n    g-0: 0123456789abcdef\n  2:\n    g-0: 0123456789abcdef\n"+goodFleet,
		`test.yaml:1: seeds 1 and 2 pin the same value on every stream: drop one, or pin a stream the seed moves`)
	// Same op log, different outputs: the second seed catches something.
	if err := mustParse(t, head+"digests:\n  1: 0123456789abcdef\n  2: 0123456789abcdef\n"+
		"output_digests:\n  1:\n    g-0: 0123456789abcdef\n  2:\n    g-0: fedcba9876543210\n"+goodFleet).Validate(); err != nil {
		t.Fatalf("pins that differ on one stream: %v", err)
	}
	// Loss on a link to a transport client: its fetches would hang.
	wantErr(t, head+`fleet:
  machines: 6
  capacity: 3
  guests:
    - name: web
      count: 1
      app:
        kind: fileserver
      traffic:
        kind: downloads
        period_ms: 100
events:
  - at_ms: 100
    action: partition
    from: guest:web
    to: web-client
`, `test.yaml:16: partition event: web-client is guest "web"'s downloads client, and the transport recovers no loss`)
	// A fault endpoint that names nothing the file attaches: a retired
	// per-replica address, a typo of a traffic source. Each would fault a
	// link that no packet uses; the file's own source and sink are fine.
	stray := head + `fleet:
  machines: 6
  capacity: 3
  guests:
    - name: g
      count: 1
      app:
        kind: beacon
        period_ms: 5
        sink: sink
      traffic:
        kind: pings
        period_ms: 20
        from: probe
events:
  - at_ms: 100
    action: inject-loss
    from: prop:host0/g-0
    to: machine:1
    prob: 0.5
  - at_ms: 200
    action: partition
    from: prob
    to: guest:g-0
  - at_ms: 300
    action: partition
    from: probe
    to: sink
`
	wantErr(t, stray, `test.yaml:19: inject-loss event: endpoint "prop:host0/g-0" names no machine:N, guest:NAME, traffic source or sink of this file`)
	wantErr(t, stray, `test.yaml:24: partition event: endpoint "prob" names no machine:N, guest:NAME, traffic source or sink of this file`)
	if err := mustParse(t, stray).Validate(); strings.Count(err.Error(), "\n") != 1 {
		t.Fatalf("want exactly the two stray endpoints refused, got:\n%v", err)
	}
	// Two transport clients on one address: one would take over the other's
	// fabric node. So would a pings source or a sink there.
	shared := head + `fleet:
  machines: 6
  capacity: 1
  guests:
    - name: web-tcp
      count: 1
      app:
        kind: fileserver
      traffic:
        kind: downloads
        period_ms: 500
        from: laptop
    - name: web-udp
      count: 1
      app:
        kind: fileserver
        transport: udp
      traffic:
        kind: downloads
        period_ms: 500
        from: laptop
`
	wantErr(t, shared, `test.yaml:8: guest "web-tcp": downloads client laptop shares its address with other traffic or a sink`)
	wantErr(t, shared, `test.yaml:16: guest "web-udp": downloads client laptop shares its address with other traffic or a sink`)
	wantErr(t, strings.Replace(shared, "from: laptop\n", "from: phone\n", 1)+`    - name: b
      count: 1
      app:
        kind: beacon
        period_ms: 5
        sink: phone
`, `test.yaml:8: guest "web-tcp": downloads client phone shares its address with other traffic or a sink`)
	// A checkpoint interval the VMM would refuse at run time.
	wantErr(t, head+strings.Replace(goodFleet, "  capacity: 3\n", "  capacity: 3\n  checkpoint_instr: 12345\n", 1),
		`test.yaml:7: fleet checkpoint_instr: vmm: invalid: CheckpointInstr 12345 must be a multiple of ExitEvery 250000`)
}

func TestValidateGeneratorGoldenErrors(t *testing.T) {
	arrivals := func(body string) string {
		return head + goodFleet + "generators:\n  - kind: arrivals\n" + body
	}
	// A Poisson rate that is not positive.
	wantErr(t, arrivals("    guest: g\n    rate_per_s: 0\n    mean_lifetime_ms: 500\n    to_ms: 1000\n"),
		`test.yaml:14: arrivals generator: rate_per_s must be positive, got 0`)
	// A window running past the end of the scenario.
	wantErr(t, arrivals("    guest: g\n    rate_per_s: 2\n    mean_lifetime_ms: 500\n    to_ms: 2500\n"),
		`test.yaml:14: arrivals generator: window from_ms 0 to_ms 2500 must satisfy 0 <= from_ms < to_ms <= duration_ms 2000`)
	// An empty window.
	wantErr(t, arrivals("    guest: g\n    rate_per_s: 2\n    mean_lifetime_ms: 500\n    from_ms: 800\n    to_ms: 800\n"),
		`test.yaml:14: arrivals generator: window from_ms 800 to_ms 800 must satisfy 0 <= from_ms < to_ms <= duration_ms 2000`)
	// A guest spec nobody declared.
	wantErr(t, arrivals("    guest: ghost\n    rate_per_s: 2\n    mean_lifetime_ms: 500\n    to_ms: 1000\n"),
		`test.yaml:14: arrivals generator references undeclared guest "ghost"`)
	// A negative event count.
	wantErr(t, head+goodFleet+"generators:\n  - kind: drains\n    count: -1\n    to_ms: 1000\n",
		`test.yaml:14: drains generator: count must be >= 0, got -1`)
	// Detected crashes without the detector armed.
	wantErr(t, head+goodFleet+"generators:\n  - kind: crashes\n    to_ms: 1000\n",
		`test.yaml:14: crashes generator: detected crashes need fleet stall_detector: true`)
	// A key that belongs to another generator kind.
	wantErr(t, head+goodFleet+"generators:\n  - kind: drains\n    rate_per_s: 2\n    to_ms: 1000\n",
		`test.yaml:15: unknown drains generator key "rate_per_s" (allowed: kind, from_ms, to_ms, count, mean_down_ms)`)
	// An instance of a generator-fed spec is addressed by index, never bare.
	wantErr(t, arrivals("    guest: g\n    rate_per_s: 2\n    mean_lifetime_ms: 500\n    to_ms: 1000\n")+
		"assertions:\n  - check: lockstep\n    guest: g\n",
		`test.yaml:20: lockstep assertion: guest spec "g" is fed by an arrivals generator — reference an instance as "g-0" etc.`)
}

func TestParserRejectsMalformedYAML(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"\tname: x\n", "test.yaml:1: tab in indentation"},
		{"name: x\nname: y\n", `test.yaml:2: duplicate key "name"`},
		{"name: \"unterminated\n", `test.yaml:1: unterminated quoted string "unterminated`},
		{"name: [a, b\n", `test.yaml:1: unterminated flow list "[a, b"`},
	} {
		_, err := Parse("test.yaml", []byte(tc.src))
		if err == nil || err.Error() != tc.want {
			t.Errorf("src %q: err = %v, want %q", tc.src, err, tc.want)
		}
	}
}

// TestParserYAMLShapes: comments, quoting, flow lists and nested blocks
// land in the right nodes.
func TestParserYAMLShapes(t *testing.T) {
	sc := mustParse(t, head+`seeds: [3, 5]  # trailing comment
fleet:
  machines: 6
  capacity: 3
  guests:
    - name: g
      count: 1
      app:
        kind: probe
assertions:
  - check: coresident
    guests: ['a#1', "b c"]
`)
	if len(sc.Seeds) != 2 || sc.Seeds[0] != 3 || sc.Seeds[1] != 5 {
		t.Fatalf("seeds = %v", sc.Seeds)
	}
	if g := sc.Assertions[0].Guests; len(g) != 2 || g[0] != "a#1" || g[1] != "b c" {
		t.Fatalf("guests = %q", g)
	}
}

// FuzzParse feeds arbitrary bytes to the decoder and, when they decode, to
// the static validator: a scenario file comes from outside the program, so
// both must answer with an error, never a panic. The seed corpus is every
// shipped scenario and one file the validator refuses.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed scenarios: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	// A fault on an endpoint the file never attaches: refused, not run.
	f.Add([]byte(head + goodFleet + "events:\n  - at_ms: 100\n    action: inject-loss\n    from: prop:host0/g-0\n    to: machine:1\n    prob: 0.5\n"))
	// Two downloads clients on one address: refused, not run.
	web := func(name string) string {
		return "    - name: " + name + "\n      count: 1\n      app:\n        kind: fileserver\n" +
			"      traffic:\n        kind: downloads\n        period_ms: 500\n        from: laptop\n"
	}
	f.Add([]byte(head + "fleet:\n  machines: 6\n  capacity: 1\n  guests:\n" + web("a") + web("b")))
	f.Fuzz(func(t *testing.T, src []byte) {
		sc, err := Parse("fuzz.yaml", src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fuzz.yaml:") {
				t.Fatalf("parse error without file:line provenance: %v", err)
			}
			return
		}
		_ = sc.Validate()
	})
}
