// Strict decoding from the parsed node tree into the Scenario schema:
// every map is checked against its allowed key set, every scalar against
// its expected type, and every error carries file:line provenance.

package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Load reads and decodes a scenario file (YAML subset). Static validation
// (Validate) is a separate pass.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, src)
}

// Parse decodes scenario source; path labels error messages.
func Parse(path string, src []byte) (*Scenario, error) {
	root, err := parseTree(path, src)
	if err != nil {
		return nil, err
	}
	d := &dec{path: path}
	sc, err := d.scenario(root)
	if err != nil {
		return nil, err
	}
	sc.Path = path
	return sc, nil
}

type dec struct {
	path string
}

func (d *dec) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", d.path, line, fmt.Sprintf(format, args...))
}

func (d *dec) wantMap(n *node, what string) error {
	if n.kind != mapNode {
		return d.errf(n.line, "%s must be a mapping", what)
	}
	return nil
}

// checkKeys rejects unknown keys, in file order.
func (d *dec) checkKeys(n *node, what string, allowed ...string) error {
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	for _, k := range n.keys {
		if !ok[k] {
			return d.errf(n.keyLine[k], "unknown %s key %q (allowed: %s)", what, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

func (d *dec) str(n *node, key string) (string, error) {
	v, ok := n.vals[key]
	if !ok {
		return "", nil
	}
	if v.kind != scalarNode {
		return "", d.errf(v.line, "%q must be a scalar", key)
	}
	return v.scalar, nil
}

func (d *dec) intField(n *node, key string, def int64) (int64, error) {
	v, ok := n.vals[key]
	if !ok {
		return def, nil
	}
	if v.kind != scalarNode || v.scalar == "" {
		return 0, d.errf(v.line, "%q must be an integer", key)
	}
	i, err := strconv.ParseInt(strings.ReplaceAll(v.scalar, "_", ""), 10, 64)
	if err != nil {
		return 0, d.errf(v.line, "%q must be an integer, got %q", key, v.scalar)
	}
	return i, nil
}

func (d *dec) floatField(n *node, key string, def float64) (float64, error) {
	v, ok := n.vals[key]
	if !ok {
		return def, nil
	}
	if v.kind != scalarNode || v.scalar == "" {
		return 0, d.errf(v.line, "%q must be a number", key)
	}
	f, err := strconv.ParseFloat(v.scalar, 64)
	if err != nil {
		return 0, d.errf(v.line, "%q must be a number, got %q", key, v.scalar)
	}
	return f, nil
}

func (d *dec) boolField(n *node, key string, def bool) (bool, error) {
	v, ok := n.vals[key]
	if !ok {
		return def, nil
	}
	switch v.scalar {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, d.errf(v.line, "%q must be true or false, got %q", key, v.scalar)
}

// optFloat returns a pointer for presence-sensitive bounds.
func (d *dec) optFloat(n *node, key string) (*float64, error) {
	if _, ok := n.vals[key]; !ok {
		return nil, nil
	}
	f, err := d.floatField(n, key, 0)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

func (d *dec) strList(n *node, key string) ([]string, error) {
	v, ok := n.vals[key]
	if !ok {
		return nil, nil
	}
	if v.kind != seqNode {
		return nil, d.errf(v.line, "%q must be a list", key)
	}
	var out []string
	for _, item := range v.items {
		if item.kind != scalarNode {
			return nil, d.errf(item.line, "%q entries must be scalars", key)
		}
		out = append(out, item.scalar)
	}
	return out, nil
}

func (d *dec) scenario(root *node) (*Scenario, error) {
	if err := d.wantMap(root, "scenario"); err != nil {
		return nil, err
	}
	if err := d.checkKeys(root, "scenario",
		"name", "description", "duration_ms", "seeds", "ci", "digests", "output_digests", "fleet", "events", "generators", "assertions"); err != nil {
		return nil, err
	}
	sc := &Scenario{}
	var err error
	if sc.Name, err = d.str(root, "name"); err != nil {
		return nil, err
	}
	if sc.Description, err = d.str(root, "description"); err != nil {
		return nil, err
	}
	if sc.DurationMS, err = d.intField(root, "duration_ms", 0); err != nil {
		return nil, err
	}
	if sc.CI, err = d.boolField(root, "ci", false); err != nil {
		return nil, err
	}
	seeds, err := d.strList(root, "seeds")
	if err != nil {
		return nil, err
	}
	for _, s := range seeds {
		u, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil || u == 0 {
			return nil, d.errf(root.vals["seeds"].line, "seeds must be positive integers, got %q", s)
		}
		sc.Seeds = append(sc.Seeds, u)
	}
	if len(sc.Seeds) == 0 {
		sc.Seeds = []uint64{1}
	}
	if dg, ok := root.vals["digests"]; ok {
		if err := d.wantMap(dg, "digests"); err != nil {
			return nil, err
		}
		sc.Digests = map[uint64]string{}
		for _, k := range dg.keys {
			seed, perr := strconv.ParseUint(k, 10, 64)
			if perr != nil {
				return nil, d.errf(dg.keyLine[k], "digest key must be a seed, got %q", k)
			}
			v := dg.vals[k]
			if v.kind != scalarNode || len(v.scalar) != 16 {
				return nil, d.errf(v.line, "digest for seed %s must be 16 hex chars", k)
			}
			sc.Digests[seed] = v.scalar
		}
	}
	if od, ok := root.vals["output_digests"]; ok {
		if err := d.wantMap(od, "output_digests"); err != nil {
			return nil, err
		}
		sc.OutputDigests = map[uint64]map[string]string{}
		for _, k := range od.keys {
			seed, perr := strconv.ParseUint(k, 10, 64)
			if perr != nil {
				return nil, d.errf(od.keyLine[k], "output_digests key must be a seed, got %q", k)
			}
			per := od.vals[k]
			if err := d.wantMap(per, "output_digests seed "+k); err != nil {
				return nil, err
			}
			byGuest := map[string]string{}
			for _, g := range per.keys {
				v := per.vals[g]
				if v.kind != scalarNode || len(v.scalar) != 16 {
					return nil, d.errf(v.line, "output digest for guest %q under seed %s must be 16 hex chars", g, k)
				}
				byGuest[g] = v.scalar
			}
			sc.OutputDigests[seed] = byGuest
		}
	}
	fl, ok := root.vals["fleet"]
	if !ok {
		return nil, d.errf(root.line, "missing fleet section")
	}
	if sc.Fleet, err = d.fleet(fl); err != nil {
		return nil, err
	}
	if ev, ok := root.vals["events"]; ok {
		if ev.kind != seqNode {
			return nil, d.errf(ev.line, "events must be a list")
		}
		for _, item := range ev.items {
			e, err := d.event(item)
			if err != nil {
				return nil, err
			}
			sc.Events = append(sc.Events, e)
		}
	}
	if gs, ok := root.vals["generators"]; ok {
		if gs.kind != seqNode {
			return nil, d.errf(gs.line, "generators must be a list")
		}
		for _, item := range gs.items {
			g, err := d.generator(item)
			if err != nil {
				return nil, err
			}
			sc.Generators = append(sc.Generators, g)
		}
	}
	if as, ok := root.vals["assertions"]; ok {
		if as.kind != seqNode {
			return nil, d.errf(as.line, "assertions must be a list")
		}
		for _, item := range as.items {
			a, err := d.assertion(item)
			if err != nil {
				return nil, err
			}
			sc.Assertions = append(sc.Assertions, a)
		}
	}
	return sc, nil
}

func (d *dec) fleet(n *node) (Fleet, error) {
	var f Fleet
	if err := d.wantMap(n, "fleet"); err != nil {
		return f, err
	}
	if err := d.checkKeys(n, "fleet",
		"machines", "capacity", "shards", "checkpoint_instr", "stall_detector",
		"planned_migration", "load_aware", "nodes", "guests"); err != nil {
		return f, err
	}
	var err error
	if v, e := d.intField(n, "machines", 0); e != nil {
		return f, e
	} else {
		f.Machines = int(v)
	}
	if v, e := d.intField(n, "capacity", 3); e != nil {
		return f, e
	} else {
		f.Capacity = int(v)
	}
	if v, e := d.intField(n, "shards", 1); e != nil {
		return f, e
	} else {
		f.Shards = int(v)
	}
	if f.CheckpointInstr, err = d.intField(n, "checkpoint_instr", 0); err != nil {
		return f, err
	}
	f.CheckpointLine = n.keyLine["checkpoint_instr"]
	if f.StallDetector, err = d.boolField(n, "stall_detector", false); err != nil {
		return f, err
	}
	if f.PlannedMigration, err = d.boolField(n, "planned_migration", false); err != nil {
		return f, err
	}
	if f.LoadAware, err = d.boolField(n, "load_aware", false); err != nil {
		return f, err
	}
	if f.Nodes, err = d.strList(n, "nodes"); err != nil {
		return f, err
	}
	gs, ok := n.vals["guests"]
	if !ok {
		return f, d.errf(n.line, "fleet needs a guests list")
	}
	if gs.kind != seqNode {
		return f, d.errf(gs.line, "guests must be a list")
	}
	for _, item := range gs.items {
		spec, err := d.guestSpec(item)
		if err != nil {
			return f, err
		}
		f.Guests = append(f.Guests, spec)
	}
	return f, nil
}

func (d *dec) guestSpec(n *node) (GuestSpec, error) {
	var g GuestSpec
	if err := d.wantMap(n, "guest spec"); err != nil {
		return g, err
	}
	if err := d.checkKeys(n, "guest spec", "name", "count", "app", "traffic"); err != nil {
		return g, err
	}
	g.Line = n.line
	var err error
	if g.Name, err = d.str(n, "name"); err != nil {
		return g, err
	}
	if g.Name == "" {
		return g, d.errf(n.line, "guest spec needs a name")
	}
	if v, e := d.intField(n, "count", 1); e != nil {
		return g, e
	} else {
		g.Count = int(v)
	}
	app, ok := n.vals["app"]
	if !ok {
		return g, d.errf(n.line, "guest %q needs an app", g.Name)
	}
	if g.App, err = d.appSpec(app); err != nil {
		return g, err
	}
	if tr, ok := n.vals["traffic"]; ok {
		if g.Traffic, err = d.trafficSpec(tr); err != nil {
			return g, err
		}
	}
	return g, nil
}

func (d *dec) appSpec(n *node) (AppSpec, error) {
	var a AppSpec
	if err := d.wantMap(n, "app"); err != nil {
		return a, err
	}
	if err := d.checkKeys(n, "app", "kind", "period_ms", "compute", "disk_kb", "sink", "echo", "until_ms", "transport"); err != nil {
		return a, err
	}
	var err error
	if a.Kind, err = d.str(n, "kind"); err != nil {
		return a, err
	}
	switch a.Kind {
	case "beacon", "fileserver", "nfs", "probe":
	default:
		return a, d.errf(n.line, "unknown app kind %q (beacon, fileserver, nfs, probe)", a.Kind)
	}
	if a.PeriodMS, err = d.floatField(n, "period_ms", 5); err != nil {
		return a, err
	}
	if a.Compute, err = d.intField(n, "compute", 500_000); err != nil {
		return a, err
	}
	if v, e := d.intField(n, "disk_kb", 0); e != nil {
		return a, e
	} else {
		a.DiskKB = int(v)
	}
	if a.Sink, err = d.str(n, "sink"); err != nil {
		return a, err
	}
	if a.Echo, err = d.boolField(n, "echo", false); err != nil {
		return a, err
	}
	if a.UntilMS, err = d.intField(n, "until_ms", 0); err != nil {
		return a, err
	}
	if a.Transport, err = d.str(n, "transport"); err != nil {
		return a, err
	}
	if a.Transport == "" {
		a.Transport = "tcp"
	}
	if a.Transport != "tcp" && a.Transport != "udp" {
		return a, d.errf(n.keyLine["transport"], "unknown transport %q (tcp, udp)", a.Transport)
	}
	return a, nil
}

func (d *dec) trafficSpec(n *node) (TrafficSpec, error) {
	var t TrafficSpec
	if err := d.wantMap(n, "traffic"); err != nil {
		return t, err
	}
	if err := d.checkKeys(n, "traffic",
		"kind", "period_ms", "from", "size_kb", "constant", "start_ms", "stop_ms"); err != nil {
		return t, err
	}
	var err error
	if t.Kind, err = d.str(n, "kind"); err != nil {
		return t, err
	}
	switch t.Kind {
	case "", "pings", "probe-stream", "downloads", "nfs-load":
	default:
		return t, d.errf(n.line, "unknown traffic kind %q (pings, probe-stream, downloads, nfs-load)", t.Kind)
	}
	if t.PeriodMS, err = d.floatField(n, "period_ms", 20); err != nil {
		return t, err
	}
	if t.From, err = d.str(n, "from"); err != nil {
		return t, err
	}
	if v, e := d.intField(n, "size_kb", 64); e != nil {
		return t, e
	} else {
		t.SizeKB = int(v)
	}
	if t.Constant, err = d.boolField(n, "constant", false); err != nil {
		return t, err
	}
	if t.StartMS, err = d.intField(n, "start_ms", 0); err != nil {
		return t, err
	}
	if t.StopMS, err = d.intField(n, "stop_ms", 0); err != nil {
		return t, err
	}
	return t, nil
}

// eventKeys lists each action's allowed keys beyond at_ms/action.
var eventKeys = map[string][]string{
	"admit":         {"guest", "count"},
	"saturate-disk": {"guest", "count"},
	"evict":         {"guest"},
	"kill-machine":  {"machine", "detected", "repair_after_ms"},
	"kill-replica":  {"guest", "slot"},
	"drain":         {"machine"},
	"undrain":       {"machine"},
	"migrate":       {"guest", "to"},
	"inject-loss":   {"from", "to", "prob", "duplex"},
	"partition":     {"from", "to", "duplex"},
	"heal":          {"from", "to", "duplex"},
}

func (d *dec) event(n *node) (Event, error) {
	ev := Event{Machine: -1}
	if err := d.wantMap(n, "event"); err != nil {
		return ev, err
	}
	ev.Line = n.line
	var err error
	if ev.AtMS, err = d.intField(n, "at_ms", -1); err != nil {
		return ev, err
	}
	if ev.AtMS < 0 {
		return ev, d.errf(n.line, "event needs at_ms")
	}
	if ev.Action, err = d.str(n, "action"); err != nil {
		return ev, err
	}
	extra, ok := eventKeys[ev.Action]
	if !ok {
		return ev, d.errf(n.line, "unknown action %q", ev.Action)
	}
	if err := d.checkKeys(n, ev.Action+" event", append([]string{"at_ms", "action"}, extra...)...); err != nil {
		return ev, err
	}
	if ev.Guest, err = d.str(n, "guest"); err != nil {
		return ev, err
	}
	if v, e := d.intField(n, "count", 1); e != nil {
		return ev, e
	} else {
		ev.Count = int(v)
	}
	if m, ok := n.vals["machine"]; ok {
		if m.scalar == "busiest" {
			ev.Busiest = true
		} else {
			v, e := d.intField(n, "machine", -1)
			if e != nil {
				return ev, e
			}
			ev.Machine = int(v)
		}
	}
	if ev.Detected, err = d.boolField(n, "detected", true); err != nil {
		return ev, err
	}
	if ev.RepairAfterMS, err = d.intField(n, "repair_after_ms", 0); err != nil {
		return ev, err
	}
	if v, e := d.intField(n, "slot", 0); e != nil {
		return ev, e
	} else {
		ev.Slot = int(v)
	}
	if ev.To, err = d.str(n, "to"); err != nil {
		return ev, err
	}
	if ev.Action == "inject-loss" || ev.Action == "partition" || ev.Action == "heal" {
		if ev.From, err = d.str(n, "from"); err != nil {
			return ev, err
		}
		ev.ToAddr, ev.To = ev.To, ""
	}
	if ev.Prob, err = d.floatField(n, "prob", 0); err != nil {
		return ev, err
	}
	if ev.Duplex, err = d.boolField(n, "duplex", false); err != nil {
		return ev, err
	}
	return ev, nil
}

// generatorKeys lists each generator kind's allowed keys beyond
// kind/from_ms/to_ms.
var generatorKeys = map[string][]string{
	"arrivals":         {"guest", "rate_per_s", "mean_lifetime_ms"},
	"replica-failures": {"count"},
	"drains":           {"count", "mean_down_ms"},
	"crashes":          {"count", "detected", "mean_down_ms"},
}

func (d *dec) generator(n *node) (Generator, error) {
	var g Generator
	if err := d.wantMap(n, "generator"); err != nil {
		return g, err
	}
	g.Line = n.line
	var err error
	if g.Kind, err = d.str(n, "kind"); err != nil {
		return g, err
	}
	extra, ok := generatorKeys[g.Kind]
	if !ok {
		return g, d.errf(n.line, "unknown generator kind %q (arrivals, replica-failures, drains, crashes)", g.Kind)
	}
	if err := d.checkKeys(n, g.Kind+" generator", append([]string{"kind", "from_ms", "to_ms"}, extra...)...); err != nil {
		return g, err
	}
	if g.FromMS, err = d.intField(n, "from_ms", 0); err != nil {
		return g, err
	}
	if g.ToMS, err = d.intField(n, "to_ms", 0); err != nil {
		return g, err
	}
	if g.Guest, err = d.str(n, "guest"); err != nil {
		return g, err
	}
	if g.RatePerS, err = d.floatField(n, "rate_per_s", 0); err != nil {
		return g, err
	}
	if g.MeanLifetimeMS, err = d.floatField(n, "mean_lifetime_ms", 0); err != nil {
		return g, err
	}
	if v, e := d.intField(n, "count", 1); e != nil {
		return g, e
	} else {
		g.Count = int(v)
	}
	if g.Detected, err = d.boolField(n, "detected", true); err != nil {
		return g, err
	}
	if g.MeanDownMS, err = d.floatField(n, "mean_down_ms", 0); err != nil {
		return g, err
	}
	return g, nil
}

// assertKeys lists each check's allowed keys beyond check.
var assertKeys = map[string][]string{
	"lockstep":   {"guest", "strict"},
	"placement":  {},
	"coresident": {"guests", "min_shared"},
	"stats":      {"field", "min", "max"},
	"oplog":      {"op", "detected", "min", "max", "within_ms", "not_fired"},
	"metric":     {"name", "label", "min", "max"},
	"journal":    {"guest", "min_checkpoints"},
}

func (d *dec) assertion(n *node) (Assertion, error) {
	var a Assertion
	if err := d.wantMap(n, "assertion"); err != nil {
		return a, err
	}
	a.Line = n.line
	var err error
	if a.Check, err = d.str(n, "check"); err != nil {
		return a, err
	}
	extra, ok := assertKeys[a.Check]
	if !ok {
		return a, d.errf(n.line, "unknown check %q", a.Check)
	}
	if err := d.checkKeys(n, a.Check+" assertion", append([]string{"check"}, extra...)...); err != nil {
		return a, err
	}
	if a.Guest, err = d.str(n, "guest"); err != nil {
		return a, err
	}
	if a.Guests, err = d.strList(n, "guests"); err != nil {
		return a, err
	}
	if a.Strict, err = d.boolField(n, "strict", false); err != nil {
		return a, err
	}
	if a.Field, err = d.str(n, "field"); err != nil {
		return a, err
	}
	if a.Op, err = d.str(n, "op"); err != nil {
		return a, err
	}
	if _, ok := n.vals["detected"]; ok {
		det, e := d.boolField(n, "detected", false)
		if e != nil {
			return a, e
		}
		a.Detected = &det
	}
	if a.WithinMS, err = d.intField(n, "within_ms", 0); err != nil {
		return a, err
	}
	if a.Name, err = d.str(n, "name"); err != nil {
		return a, err
	}
	if a.Label, err = d.str(n, "label"); err != nil {
		return a, err
	}
	if a.Min, err = d.optFloat(n, "min"); err != nil {
		return a, err
	}
	if a.Max, err = d.optFloat(n, "max"); err != nil {
		return a, err
	}
	if a.NotFired, err = d.boolField(n, "not_fired", false); err != nil {
		return a, err
	}
	if v, e := d.intField(n, "min_shared", 1); e != nil {
		return a, e
	} else {
		a.MinShared = int(v)
	}
	if a.MinCheckpoints, err = d.intField(n, "min_checkpoints", 1); err != nil {
		return a, err
	}
	return a, nil
}
