// Package scenario is the declarative fleet-scenario harness (Navarch
// style): YAML scenario files describe a fleet (machines, capacity,
// guest mix with app kinds and traffic models), a script of virtual-
// time-stamped events (admit bursts, evictions, machine kills, drains,
// migrations, fabric faults), seeded stochastic generators of the same
// events (churn) and end-of-run checks (guest lockstep, coresidency, op-log
// expectations, metric predicates, per-seed op-log digest pins) beside the
// placement audit every run ends with. The checks are laws (invariants,
// held at every seed) or pins (assertions and digests, held at the seeds
// the file declares).
//
// The interpreter is deliberately a pure client of the public control
// surface: every lifecycle mutation goes through ControlPlane.Apply,
// every observation through Watch, the op log, FoldOpStats, the pool's
// read API and the metrics registry. The only internal vocabulary it
// speaks is the netsim fault-injection surface (per-link loss overrides
// and partition toggles), which exists precisely to be scripted. This
// package importing nothing but the stopwatch façade and that fault
// vocabulary is enforced by a test — the harness doubles as proof that
// the operations API is sufficient for external tooling.
//
// Parsing has no external dependencies: a small YAML-subset parser
// (block maps and sequences, scalars, quoted strings, flow lists,
// comments) with line-numbered errors.
package scenario

// Scenario is one parsed scenario file.
type Scenario struct {
	// Name identifies the scenario (reports, CI).
	Name string
	// Description is free-form documentation.
	Description string
	// DurationMS is the simulated run length in milliseconds.
	DurationMS int64
	// Seeds are the master seeds the scenario is pinned/run under
	// (default: [1]): the seeds Assertions are checked at.
	Seeds []uint64
	// FailingSeeds are seeds known to break an invariant — open holes,
	// written down. A sweep expects each to fail and fails when one comes out
	// clean, so the list can only shrink. None is also in Seeds.
	FailingSeeds []uint64
	// CI marks the scenario for execution (not just validation) in CI.
	CI bool
	// Digests pins the op-log digest per seed ("%016x"); empty means
	// unpinned. A digest mismatch is an assertion failure.
	Digests map[uint64]string
	// OutputDigests pins per-guest output digests per seed
	// (seed → instance → "%016x"): the data-plane counterpart of Digests,
	// checked against every live replica of the instance at end of run.
	OutputDigests map[uint64]map[string]string

	Fleet      Fleet
	Events     []Event
	Generators []Generator
	// Invariants are the laws, checked at every seed; Assertions are the
	// pins, checked only at the declared Seeds. Both speak one vocabulary.
	Invariants []Assertion
	Assertions []Assertion

	// Path is the file the scenario was parsed from (error messages), and
	// FailingSeedsLine failing_seeds' position in it.
	Path             string
	FailingSeedsLine int
}

// Fleet describes the cloud a scenario runs on.
type Fleet struct {
	// Machines is the host count.
	Machines int
	// Capacity is the per-host guest-replica capacity (control plane).
	Capacity int
	// CheckpointInstr enables journal checkpoints every N instructions
	// (0 = off; must be a multiple of the VMM exit quantum).
	CheckpointInstr int64
	// StallDetector arms the proposal-deadline stall detector.
	StallDetector bool
	// PlannedMigration turns infeasible placements into one-move plans.
	PlannedMigration bool
	// Guests is the guest mix.
	Guests []GuestSpec

	// CheckpointLine is checkpoint_instr's position in the file.
	CheckpointLine int
}

// GuestSpec declares one guest population: an app kind, an optional
// traffic model, and how many instances are admitted at t=0 (events may
// admit more). A spec whose total instance count is 1 is addressed by its
// bare name; otherwise instances are "<name>-0", "<name>-1", …
type GuestSpec struct {
	Name    string
	Count   int
	App     AppSpec
	Traffic TrafficSpec

	// Line is the spec's position in the file.
	Line int
}

// AppSpec selects and parameterizes the guest application.
type AppSpec struct {
	// Kind: "beacon" | "fileserver" | "nfs" | "probe".
	Kind string
	// PeriodMS is the beacon burst period (guest virtual time).
	PeriodMS float64
	// Compute is the beacon per-burst compute (instructions).
	Compute int64
	// DiskKB is the beacon per-burst disk read (KB).
	DiskKB int
	// Sink is the beacon's packet sink address ("" disables).
	Sink string
	// Echo makes the beacon answer every inbound packet (pings).
	Echo bool
	// UntilMS, when positive, is the guest-virtual instant after which the
	// beacon goes quiet, so replicas quiesce for a strict end-of-run audit.
	UntilMS int64
	// Transport: "tcp" | "udp" (fileserver).
	Transport string
}

// TrafficSpec drives external load at a guest population.
type TrafficSpec struct {
	// Kind: "" (none) | "pings" | "probe-stream" | "downloads" | "nfs-load".
	Kind string
	// PeriodMS is the ping/fetch period, or the probe-stream/nfs-load mean
	// gap.
	PeriodMS float64
	// From names the fabric source (pings, probe-stream) or the transport
	// client (downloads, nfs-load). Defaults derive from the spec name.
	From string
	// SizeKB is the downloads fetch size.
	SizeKB int
	// Constant makes probe-stream gaps constant instead of Poisson.
	Constant bool
	// StartMS/StopMS bound the traffic window (defaults: 50ms to
	// duration−1s).
	StartMS int64
	StopMS  int64
}

// Event is one scripted action at a virtual time.
type Event struct {
	// AtMS is the firing time in milliseconds of simulated time.
	AtMS int64
	// Action discriminates the union: admit | evict | kill-machine |
	// drain | undrain | migrate | inject-loss | partition | heal.
	Action string
	// Line is the event's position in the file.
	Line int

	// Guest targets a spec (admit) or an instance (evict, migrate).
	Guest string
	// Count is the admit burst size.
	Count int
	// Machine targets a host (kill-machine, drain, undrain); -1 unset.
	Machine int
	// Busiest picks the machine with the most residents (kill-machine).
	Busiest bool
	// Detected routes a kill through the data plane only, leaving the
	// stall detector to fail the machine; false scripts the FailOp +
	// EvacuateOp directly.
	Detected bool
	// RepairAfterMS schedules a RepairOp that long after the machine's
	// evacuation completes (0 = never).
	RepairAfterMS int64
	// To is the migrate destination: "auto" or a machine index.
	To string
	// From/ToAddr are link endpoints for fabric faults. Forms:
	// "machine:N" (the host's Dom0), "guest:NAME" (the guest's public
	// service address), or a literal fabric address.
	From   string
	ToAddr string
	// Prob is the inject-loss probability.
	Prob float64
	// Duplex applies the fault in both directions.
	Duplex bool
}

// Generator is one seeded stochastic event source. Each draws from its own
// named stream ("scenario:gen:<kind>:<index>", index = position in the
// file), so adding a generator never shifts another's draws, and feeds the
// same executors the scripted events use.
type Generator struct {
	// Kind discriminates the union: arrivals | replica-failures | drains |
	// crashes.
	Kind string
	// Line is the generator's position in the file.
	Line int

	// FromMS/ToMS bound the window events are drawn in.
	FromMS int64
	ToMS   int64

	// Guest is the spec arrivals admit instances of.
	Guest string
	// RatePerS is the Poisson arrival rate.
	RatePerS float64
	// MeanLifetimeMS is the mean of an arrival's exponential lifetime; a
	// departure that would land at or past ToMS is never scheduled.
	MeanLifetimeMS float64

	// Count is how many replica-failures / drains / crashes fire, at
	// uniform instants in the window, each on a random eligible target.
	Count int
	// Detected makes crashes data-plane kills the stall detector must
	// notice (as kill-machine's detected).
	Detected bool
	// MeanDownMS is the mean of the exponential delay before a drained
	// machine is undrained, or a crashed and evacuated one repaired.
	MeanDownMS float64
}

// Assertion is one end-of-run check.
type Assertion struct {
	// Check discriminates the union: lockstep | coresident | stats | oplog |
	// metric | journal.
	Check string
	// Line is the assertion's position in the file.
	Line int

	// Guest targets one instance, or "all" (lockstep, journal).
	Guest string
	// Guests are the coresident pair.
	Guests []string
	// Strict requires exact lockstep (no degraded prefix tolerance).
	Strict bool
	// Field is the FoldOpStats counter name (snake_case).
	Field string
	// Op is the op-log kind: admit | evict | replace | drain | undrain |
	// fail | evacuate | repair | migrate.
	Op string
	// Detected filters FailOps by their Detected flag (nil = both).
	Detected *bool
	// WithinMS bounds detection latency: every counted detected FailOp
	// must be submitted within this many ms of the kill event on its
	// machine.
	WithinMS int64
	// Name/Label select a metric family and sample.
	Name  string
	Label string
	// Min/Max bound the asserted value (stats, oplog count, metric).
	Min *float64
	Max *float64
	// NotFired asserts the op never appeared on the log at all (oplog) —
	// the readable spelling of max: 0, mutually exclusive with bounds.
	NotFired bool
	// MinShared is the coresident host-overlap lower bound.
	MinShared int
	// MinCheckpoints is the journal checkpoint lower bound.
	MinCheckpoints int64
}
