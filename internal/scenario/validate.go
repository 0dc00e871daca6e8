// Static validation: everything that can be rejected before building a
// cluster — unknown hosts, events out of order, references to undeclared
// guests, fault endpoints out of range, assertion vocabulary. Every
// message carries file:line provenance; Validate reports all defects,
// joined.

package scenario

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"stopwatch"
)

// statsFields is the vocabulary of the "stats" assertion, declared once for
// validator and evaluator: every int field of ControlPlaneStats under the
// snake_case of its name, as an index into the struct. A counter added
// to the fold is assertable without an edit here.
var statsFields = func() map[string]int {
	fields := map[string]int{}
	t := reflect.TypeFor[stopwatch.ControlPlaneStats]()
	for i := range t.NumField() {
		if t.Field(i).Type.Kind() != reflect.Int {
			continue
		}
		var snake []rune
		for j, c := range t.Field(i).Name {
			if unicode.IsUpper(c) && j > 0 {
				snake = append(snake, '_')
			}
			snake = append(snake, unicode.ToLower(c))
		}
		fields[string(snake)] = i
	}
	return fields
}()

// knownOp reports whether name is in the vocabulary of the "oplog"
// assertion, which is OpKind.String's.
func knownOp(name string) bool {
	for k := stopwatch.OpKind(1); k.String() != "?"; k++ {
		if k.String() == name {
			return true
		}
	}
	return false
}

// Validate runs every static check and returns the joined defects (nil
// when clean).
func (sc *Scenario) Validate() error {
	v := &validator{sc: sc, specs: map[string]*GuestSpec{}}
	v.fleet()
	v.events()
	v.generators()
	v.assertions()
	return errors.Join(v.errs...)
}

type validator struct {
	sc     *Scenario
	errs   []error
	specs  map[string]*GuestSpec
	totals map[string]int // instanceTotals(sc)
}

// unbounded is the instance total of a spec an arrivals generator feeds:
// how many instances the run admits is not known statically.
const unbounded = -1

// instanceTotals counts each spec's instances over the whole script — the
// initial population plus every admit burst; unbounded under an arrivals
// generator. The totals decide instance naming ("<name>-<i>", or the bare
// name for a population of one) and bound instance references.
func instanceTotals(sc *Scenario) map[string]int {
	totals := map[string]int{}
	for i := range sc.Fleet.Guests {
		totals[sc.Fleet.Guests[i].Name] = sc.Fleet.Guests[i].Count
	}
	for _, ev := range sc.Events {
		if ev.Action == "admit" {
			totals[ev.Guest] += ev.Count
		}
	}
	for _, g := range sc.Generators {
		if g.Kind == "arrivals" {
			totals[g.Guest] = unbounded
		}
	}
	return totals
}

func (v *validator) errf(line int, format string, args ...any) {
	v.errs = append(v.errs, fmt.Errorf("%s:%d: %s", v.sc.Path, line, fmt.Sprintf(format, args...)))
}

func (v *validator) fleet() {
	sc := v.sc
	if sc.Name == "" {
		v.errf(1, "scenario needs a name")
	}
	if sc.DurationMS <= 0 {
		v.errf(1, "scenario needs a positive duration_ms")
	}
	f := &sc.Fleet
	if f.Machines < 3 {
		v.errf(1, "fleet needs at least 3 machines, got %d", f.Machines)
	}
	if f.Capacity < 1 {
		v.errf(1, "fleet capacity must be at least 1, got %d", f.Capacity)
	}
	// The same check the run's cluster construction makes, made here so
	// validate rejects what run would.
	vmm := stopwatch.DefaultClusterConfig().VMM
	vmm.CheckpointInstr = f.CheckpointInstr
	if err := vmm.Validate(); err != nil {
		v.errf(f.CheckpointLine, "fleet checkpoint_instr: %v", err)
	}
	for i := range f.Guests {
		g := &f.Guests[i]
		if _, dup := v.specs[g.Name]; dup {
			v.errf(g.Line, "duplicate guest spec %q", g.Name)
			continue
		}
		if g.Count < 0 {
			v.errf(g.Line, "guest %q count must be >= 0", g.Name)
		}
		v.specs[g.Name] = g
		switch g.Traffic.Kind {
		case "downloads":
			if g.App.Kind != "fileserver" {
				v.errf(g.Line, "guest %q: downloads traffic needs a fileserver app, not %q", g.Name, g.App.Kind)
			}
		case "nfs-load":
			if g.App.Kind != "nfs" {
				v.errf(g.Line, "guest %q: nfs-load traffic needs an nfs app, not %q", g.Name, g.App.Kind)
			}
		case "probe-stream", "pings", "":
		}
		// A transport client owns its address: the run attaches one node
		// per address, so another there would take its replies.
		from := g.trafficFrom()
		if k := g.Traffic.Kind; (k == "downloads" || k == "nfs-load") &&
			slices.ContainsFunc(f.Guests, func(o GuestSpec) bool {
				return o.App.Sink == from || (o.Name != g.Name && o.Traffic.Kind != "" && o.trafficFrom() == from)
			}) {
			v.errf(g.Line, "guest %q: %s client %s shares its address with other traffic or a sink", g.Name, k, from)
		}
		if g.Traffic.Kind != "" && g.Traffic.PeriodMS <= 0 {
			v.errf(g.Line, "guest %q: traffic period_ms must be positive", g.Name)
		}
		if g.App.Kind == "beacon" && g.App.PeriodMS <= 0 {
			v.errf(g.Line, "guest %q: beacon period_ms must be positive", g.Name)
		}
	}
	if len(f.Guests) == 0 {
		v.errf(1, "fleet needs at least one guest spec")
	}
	v.totals = instanceTotals(sc)
	for i := range f.Guests {
		g := &f.Guests[i]
		switch total := v.totals[g.Name]; {
		case g.Traffic.Kind == "nfs-load" && total != 1:
			v.errf(g.Line, "guest %q: nfs-load traffic drives exactly one instance", g.Name)
		case g.Traffic.Kind == "probe-stream" && total == unbounded:
			v.errf(g.Line, "guest %q: probe-stream traffic needs a fixed instance count, not an arrivals generator", g.Name)
		}
	}
	for _, seed := range sortedSeeds(sc.OutputDigests) {
		for _, g := range sortedGuests(sc.OutputDigests[seed]) {
			v.guestRef(1, g, fmt.Sprintf("output_digests seed %d", seed))
		}
	}
	// A seed's pins by stream: the op log under "", a guest's output under
	// its name. Two seeds with the same pins catch the same things.
	pins := map[uint64]map[string]string{}
	for seed, d := range sc.Digests {
		pins[seed] = map[string]string{"": d}
	}
	for seed, out := range sc.OutputDigests {
		if pins[seed] == nil {
			pins[seed] = map[string]string{}
		}
		maps.Copy(pins[seed], out)
	}
	seeds := slices.Sorted(maps.Keys(pins))
	for i, a := range seeds {
		for _, b := range seeds[i+1:] {
			if maps.Equal(pins[a], pins[b]) {
				v.errf(1, "seeds %d and %d pin the same value on every stream: drop one, or pin a stream the seed moves", a, b)
			}
		}
	}
	for _, seed := range sc.FailingSeeds {
		if slices.Contains(sc.Seeds, seed) {
			v.errf(sc.FailingSeedsLine, "failing_seeds lists seed %d, which seeds declares: a declared seed's pins must pass", seed)
		}
	}
}

// sortedSeeds/sortedGuests order the digest-pin maps for deterministic
// validation reports.
func sortedSeeds(m map[uint64]map[string]string) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedGuests(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// guestRef checks a guest reference: a spec name (when the spec's total
// is 1) or "<spec>-<i>" with i under the spec's total.
func (v *validator) guestRef(line int, ref, what string) {
	if ref == "" {
		v.errf(line, "%s needs a guest", what)
		return
	}
	if spec, ok := v.specs[ref]; ok {
		if total := v.totals[spec.Name]; total == unbounded {
			v.errf(line, "%s: guest spec %q is fed by an arrivals generator — reference an instance as %q etc.", what, ref, ref+"-0")
		} else if total > 1 {
			v.errf(line, "%s: guest spec %q has %d instances — reference one as %q etc.", what, ref, total, ref+"-0")
		}
		return
	}
	if i := strings.LastIndexByte(ref, '-'); i > 0 {
		specName, idxStr := ref[:i], ref[i+1:]
		if spec, ok := v.specs[specName]; ok {
			idx, err := strconv.Atoi(idxStr)
			if total := v.totals[spec.Name]; err == nil && idx >= 0 && (idx < total || total == unbounded) {
				return
			}
			v.errf(line, "%s: guest %q out of range (spec %q has %d instances)",
				what, ref, specName, v.totals[spec.Name])
			return
		}
	}
	v.errf(line, "%s references undeclared guest %q", what, ref)
}

func (v *validator) machineRef(line int, m int, what string) {
	if m < 0 || m >= v.sc.Fleet.Machines {
		v.errf(line, "%s: machine %d out of range (fleet has %d machines)", what, m, v.sc.Fleet.Machines)
	}
}

// linkEndpoint checks a fault endpoint: "machine:N", "guest:NAME", or a
// literal address the file itself attaches (a spec's traffic source, an
// app sink, a fleet node). Any other name would fault a link no packet
// uses.
func (v *validator) linkEndpoint(line int, s, what string) {
	if s == "" {
		v.errf(line, "%s needs from and to endpoints", what)
		return
	}
	if rest, ok := strings.CutPrefix(s, "machine:"); ok {
		m, err := strconv.Atoi(rest)
		if err != nil {
			v.errf(line, "%s: bad machine endpoint %q", what, s)
			return
		}
		v.machineRef(line, m, what)
		return
	}
	if rest, ok := strings.CutPrefix(s, "guest:"); ok {
		v.guestRef(line, rest, what)
	} else if !slices.ContainsFunc(v.sc.Fleet.Guests, func(g GuestSpec) bool {
		return g.App.Sink == s || (g.Traffic.Kind != "" && g.trafficFrom() == s)
	}) {
		v.errf(line, "%s: endpoint %q names no machine:N, guest:NAME, traffic source or sink of this file", what, s)
	}
}

// lossless refuses a lossy link that ends at a downloads or nfs-load
// client. The transport recovers no loss: a fetch or NFS operation that
// loses a segment would wait, without an error, for the rest of the run.
func (v *validator) lossless(line int, what string, ends ...string) {
	for i := range v.sc.Fleet.Guests {
		g := &v.sc.Fleet.Guests[i]
		if k := g.Traffic.Kind; k != "downloads" && k != "nfs-load" {
			continue
		}
		if from := g.trafficFrom(); slices.Contains(ends, from) {
			v.errf(line, "%s: %s is guest %q's %s client, and the transport recovers no loss", what, from, g.Name, g.Traffic.Kind)
		}
	}
}

func (v *validator) events() {
	sc := v.sc
	var prev int64
	for i, ev := range sc.Events {
		what := ev.Action + " event"
		if i > 0 && ev.AtMS < prev {
			v.errf(ev.Line, "events out of order: at_ms %d after %d", ev.AtMS, prev)
		}
		prev = ev.AtMS
		if ev.AtMS >= sc.DurationMS {
			v.errf(ev.Line, "%s at_ms %d is beyond the scenario duration %d", what, ev.AtMS, sc.DurationMS)
		}
		switch ev.Action {
		case "admit":
			if ev.Guest == "" {
				v.errf(ev.Line, "%s needs a guest spec", what)
			} else if _, ok := v.specs[ev.Guest]; !ok {
				v.errf(ev.Line, "%s references undeclared guest %q", what, ev.Guest)
			}
			if ev.Count < 1 {
				v.errf(ev.Line, "%s count must be >= 1", what)
			}
		case "evict", "migrate":
			v.guestRef(ev.Line, ev.Guest, what)
			if ev.Action == "migrate" {
				if ev.To == "" || ev.To == "auto" {
					break
				}
				m, err := strconv.Atoi(ev.To)
				if err != nil {
					v.errf(ev.Line, "migrate event: to must be \"auto\" or a machine index, got %q", ev.To)
					break
				}
				v.machineRef(ev.Line, m, what)
			}
		case "kill-machine":
			if !ev.Busiest {
				v.machineRef(ev.Line, ev.Machine, what)
			}
			if ev.Detected && !sc.Fleet.StallDetector {
				v.errf(ev.Line, "kill-machine event: detected kill needs fleet stall_detector: true")
			}
		case "drain", "undrain":
			v.machineRef(ev.Line, ev.Machine, what)
		case "inject-loss", "partition", "heal":
			v.linkEndpoint(ev.Line, ev.From, what)
			v.linkEndpoint(ev.Line, ev.ToAddr, what)
			if ev.Action == "inject-loss" && (ev.Prob < 0 || ev.Prob > 1) {
				v.errf(ev.Line, "inject-loss event: prob %v out of range [0, 1]", ev.Prob)
			}
			if ev.Action != "heal" {
				v.lossless(ev.Line, what, ev.From, ev.ToAddr)
			}
		}
	}
}

func (v *validator) generators() {
	sc := v.sc
	for _, g := range sc.Generators {
		what := g.Kind + " generator"
		if g.FromMS < 0 || g.ToMS <= g.FromMS || g.ToMS > sc.DurationMS {
			v.errf(g.Line, "%s: window from_ms %d to_ms %d must satisfy 0 <= from_ms < to_ms <= duration_ms %d",
				what, g.FromMS, g.ToMS, sc.DurationMS)
		}
		if g.Kind == "arrivals" {
			if g.Guest == "" {
				v.errf(g.Line, "%s needs a guest spec", what)
			} else if _, ok := v.specs[g.Guest]; !ok {
				v.errf(g.Line, "%s references undeclared guest %q", what, g.Guest)
			}
			if g.RatePerS <= 0 {
				v.errf(g.Line, "%s: rate_per_s must be positive, got %v", what, g.RatePerS)
			}
			if g.MeanLifetimeMS <= 0 {
				v.errf(g.Line, "%s: mean_lifetime_ms must be positive, got %v", what, g.MeanLifetimeMS)
			}
			continue
		}
		if g.Count < 0 {
			v.errf(g.Line, "%s: count must be >= 0, got %d", what, g.Count)
		}
		if g.MeanDownMS < 0 {
			v.errf(g.Line, "%s: mean_down_ms must be >= 0, got %v", what, g.MeanDownMS)
		}
		if g.Kind == "crashes" && g.Detected && !sc.Fleet.StallDetector {
			v.errf(g.Line, "%s: detected crashes need fleet stall_detector: true", what)
		}
	}
}

func (v *validator) assertions() {
	for _, a := range slices.Concat(v.sc.Invariants, v.sc.Assertions) {
		what := a.Check + " assertion"
		switch a.Check {
		case "lockstep":
			if a.Guest != "" && a.Guest != "all" {
				v.guestRef(a.Line, a.Guest, what)
			}
		case "journal":
			if a.Guest != "all" {
				v.guestRef(a.Line, a.Guest, what)
			}
		case "coresident":
			if len(a.Guests) != 2 {
				v.errf(a.Line, "coresident assertion needs exactly 2 guests, got %d", len(a.Guests))
				break
			}
			for _, g := range a.Guests {
				v.guestRef(a.Line, g, what)
			}
		case "stats":
			if _, ok := statsFields[a.Field]; !ok {
				v.errf(a.Line, "stats assertion: unknown field %q", a.Field)
			}
			if a.Min == nil && a.Max == nil {
				v.errf(a.Line, "stats assertion needs min and/or max")
			}
		case "oplog":
			if !knownOp(a.Op) {
				v.errf(a.Line, "oplog assertion: unknown op %q", a.Op)
			}
			if a.NotFired && (a.Min != nil || a.Max != nil || a.WithinMS > 0) {
				v.errf(a.Line, "oplog assertion: not_fired excludes min/max/within_ms")
			}
			if !a.NotFired && a.Min == nil && a.Max == nil {
				v.errf(a.Line, "oplog assertion needs min and/or max (or not_fired: true)")
			}
			if a.WithinMS > 0 && (a.Op != "fail" || a.Detected == nil || !*a.Detected) {
				v.errf(a.Line, "oplog assertion: within_ms needs op: fail with detected: true")
			}
		case "metric":
			if a.Name == "" {
				v.errf(a.Line, "metric assertion needs a name")
			}
			if a.Min == nil && a.Max == nil {
				v.errf(a.Line, "metric assertion needs min and/or max")
			}
		}
	}
}
