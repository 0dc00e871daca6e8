// Strict decoding from the parsed node tree into the Scenario schema:
// every map is checked against its allowed key set, every scalar against
// its expected type, and every error carries file:line provenance.

package scenario

import (
	"fmt"
	"os"
	"slices"
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
	sc := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	sc.Path = path
	return sc, nil
}

// dec is the decoder's fail-closed cursor (the pattern of
// guest.SnapshotReader): err holds the first defect found and every read
// after it is harmless — it returns a default and cannot replace the error —
// so the functions below read a whole mapping in file-schema order without a
// check per key, and Parse makes the one check at the end.
type dec struct {
	path string
	err  error
}

func (d *dec) errf(line int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s:%d: %s", d.path, line, fmt.Sprintf(format, args...))
	}
}

// fields reads one mapping by key. n is always a mapping: where the file
// holds something else, that is the recorded defect and n an empty stand-in.
type fields struct {
	d    *dec
	n    *node
	what string
}

func (d *dec) mapping(n *node, what string) fields {
	if n.kind != mapNode {
		d.errf(n.line, "%s must be a mapping", what)
		n = &node{kind: mapNode, line: n.line}
	}
	return fields{d, n, what}
}

// fields is mapping plus the closed key set of a mapping that is no union.
func (d *dec) fields(n *node, what string, allowed ...string) fields {
	f := d.mapping(n, what)
	f.allow(what, allowed)
	return f
}

// allow rejects keys outside allowed, in file order.
func (f fields) allow(what string, allowed []string) {
	for _, k := range f.n.keys {
		if !slices.Contains(allowed, k) {
			f.d.errf(f.n.keyLine[k], "unknown %s key %q (allowed: %s)", what, k, strings.Join(allowed, ", "))
		}
	}
}

// kind reads the string that discriminates a union — an event's action, a
// generator's kind, an assertion's check — and closes the mapping's key set
// to common plus what that arm allows. unknown is the complaint's format.
func (f fields) kind(key, unknown string, arms map[string][]string, common ...string) string {
	k := f.str(key)
	extra, ok := arms[k]
	if !ok {
		f.d.errf(f.n.line, unknown, k)
	}
	f.allow(k+" "+f.what, append(common, extra...))
	return k
}

// oneOf reads a string that must be among allowed.
func (f fields) oneOf(key, unknown string, allowed ...string) string {
	s := f.str(key)
	if !slices.Contains(allowed, s) {
		f.d.errf(f.n.line, unknown, s)
	}
	return s
}

// need returns key's node. A missing one is the recorded defect, and what
// comes back is an empty mapping to go on reading defaults from.
func (f fields) need(key, format string, args ...any) *node {
	if v := f.n.vals[key]; v != nil {
		return v
	}
	f.d.errf(f.n.line, format, args...)
	return &node{kind: mapNode, line: f.n.line}
}

func (f fields) str(key string) string {
	v := f.n.vals[key]
	if v == nil {
		return ""
	}
	if v.kind != scalarNode {
		f.d.errf(v.line, "%q must be a scalar", key)
	}
	return v.scalar
}

// number reads a non-empty scalar through parse; what names the type.
func number[T any](f fields, key string, def T, what string, parse func(string) (T, error)) T {
	v := f.n.vals[key]
	if v == nil {
		return def
	}
	if v.kind != scalarNode || v.scalar == "" {
		f.d.errf(v.line, "%q must be %s", key, what)
		return def
	}
	x, err := parse(v.scalar)
	if err != nil {
		f.d.errf(v.line, "%q must be %s, got %q", key, what, v.scalar)
	}
	return x
}

func (f fields) int(key string, def int64) int64 {
	return number(f, key, def, "an integer", func(s string) (int64, error) {
		return strconv.ParseInt(strings.ReplaceAll(s, "_", ""), 10, 64)
	})
}

// intOr reads an integer the file may spell with a word instead, which reads
// as def.
func (f fields) intOr(key, word string, def int64) int64 {
	if v := f.n.vals[key]; v != nil && v.scalar == word {
		return def
	}
	return f.int(key, def)
}

func (f fields) float(key string, def float64) float64 {
	return number(f, key, def, "a number", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

func (f fields) bool(key string, def bool) bool {
	v := f.n.vals[key]
	if v == nil {
		return def
	}
	if v.scalar != "true" && v.scalar != "false" {
		f.d.errf(v.line, "%q must be true or false, got %q", key, v.scalar)
	}
	return v.scalar == "true"
}

// opt reads a presence-sensitive value (a bound, a filter): nil when absent.
func opt[T any](f fields, key string, read func(string, T) T) *T {
	if f.n.vals[key] == nil {
		return nil
	}
	var zero T
	v := read(key, zero)
	return &v
}

// list returns the items of key's sequence, none when the key is absent;
// complaint is what a non-sequence there is told.
func (f fields) list(key, complaint string) []*node {
	v := f.n.vals[key]
	if v == nil {
		return nil
	}
	if v.kind != seqNode {
		f.d.errf(v.line, complaint, key)
	}
	return v.items
}

func (f fields) seq(key string) []*node { return f.list(key, "%s must be a list") }

func (f fields) strList(key string) []string {
	return each(f.list(key, "%q must be a list"), func(item *node) string {
		if item.kind != scalarNode {
			f.d.errf(item.line, "%q entries must be scalars", key)
		}
		return item.scalar
	})
}

// each decodes a sequence's items; no items is a nil slice.
func each[T any](items []*node, decode func(*node) T) []T {
	var out []T
	for _, item := range items {
		out = append(out, decode(item))
	}
	return out
}

// bySeed decodes the mapping at key, whose keys are seeds; nil when absent.
func bySeed[V any](f fields, key, keyWhat string, decode func(seed string, v *node) V) map[uint64]V {
	n := f.n.vals[key]
	if n == nil {
		return nil
	}
	out := map[uint64]V{}
	for _, k := range f.d.mapping(n, key).n.keys {
		seed, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			f.d.errf(n.keyLine[k], "%s key must be a seed, got %q", keyWhat, k)
		}
		out[seed] = decode(k, n.vals[k])
	}
	return out
}

// hex16 reads a digest pin; the complaint names whose.
func (d *dec) hex16(v *node, format string, args ...any) string {
	if v.kind != scalarNode || len(v.scalar) != 16 {
		d.errf(v.line, format, args...)
	}
	return v.scalar
}

func (d *dec) scenario(root *node) *Scenario {
	f := d.fields(root, "scenario",
		"name", "description", "duration_ms", "seeds", "failing_seeds", "ci", "digests", "output_digests",
		"fleet", "events", "generators", "invariants", "assertions")
	seeds := f.seeds("seeds")
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	return &Scenario{
		Name:             f.str("name"),
		Description:      f.str("description"),
		DurationMS:       f.int("duration_ms", 0),
		CI:               f.bool("ci", false),
		Seeds:            seeds,
		FailingSeeds:     f.seeds("failing_seeds"),
		FailingSeedsLine: f.n.keyLine["failing_seeds"],
		Digests: bySeed(f, "digests", "digest", func(seed string, v *node) string {
			return d.hex16(v, "digest for seed %s must be 16 hex chars", seed)
		}),
		OutputDigests: bySeed(f, "output_digests", "output_digests", func(seed string, per *node) map[string]string {
			byGuest := map[string]string{}
			for _, g := range d.mapping(per, "output_digests seed "+seed).n.keys {
				byGuest[g] = d.hex16(per.vals[g], "output digest for guest %q under seed %s must be 16 hex chars", g, seed)
			}
			return byGuest
		}),
		Fleet:      d.fleet(f.need("fleet", "missing fleet section")),
		Events:     each(f.seq("events"), d.event),
		Generators: each(f.seq("generators"), d.generator),
		Invariants: each(f.seq("invariants"), d.assertion),
		Assertions: each(f.seq("assertions"), d.assertion),
	}
}

// seeds reads a list of seeds; none when the key is absent.
func (f fields) seeds(key string) []uint64 {
	var out []uint64
	for _, s := range f.strList(key) {
		u, err := strconv.ParseUint(s, 10, 64)
		if err != nil || u == 0 {
			f.d.errf(f.n.vals[key].line, "%s must be positive integers, got %q", key, s)
		}
		out = append(out, u)
	}
	return out
}

func (d *dec) fleet(n *node) Fleet {
	f := d.fields(n, "fleet",
		"machines", "capacity", "checkpoint_instr", "stall_detector",
		"planned_migration", "guests")
	fl := Fleet{
		Machines:         int(f.int("machines", 0)),
		Capacity:         int(f.int("capacity", 3)),
		CheckpointInstr:  f.int("checkpoint_instr", 0),
		CheckpointLine:   f.n.keyLine["checkpoint_instr"],
		StallDetector:    f.bool("stall_detector", false),
		PlannedMigration: f.bool("planned_migration", false),
	}
	f.need("guests", "fleet needs a guests list")
	fl.Guests = each(f.seq("guests"), d.guestSpec)
	return fl
}

func (d *dec) guestSpec(n *node) GuestSpec {
	f := d.fields(n, "guest spec", "name", "count", "app", "traffic")
	g := GuestSpec{Line: n.line, Name: f.str("name")}
	if g.Name == "" {
		d.errf(n.line, "guest spec needs a name")
	}
	g.Count = int(f.int("count", 1))
	g.App = d.appSpec(f.need("app", "guest %q needs an app", g.Name))
	if tr := f.n.vals["traffic"]; tr != nil {
		g.Traffic = d.trafficSpec(tr)
	}
	return g
}

func (d *dec) appSpec(n *node) AppSpec {
	f := d.fields(n, "app", "kind", "period_ms", "compute", "disk_kb", "sink", "echo", "until_ms", "transport")
	a := AppSpec{
		Kind:      f.oneOf("kind", "unknown app kind %q (beacon, fileserver, nfs, probe)", "beacon", "fileserver", "nfs", "probe"),
		PeriodMS:  f.float("period_ms", 5),
		Compute:   f.int("compute", 500_000),
		DiskKB:    int(f.int("disk_kb", 0)),
		Sink:      f.str("sink"),
		Echo:      f.bool("echo", false),
		UntilMS:   f.int("until_ms", 0),
		Transport: f.str("transport"),
	}
	if a.Transport == "" {
		a.Transport = "tcp"
	}
	if a.Transport != "tcp" && a.Transport != "udp" {
		d.errf(n.keyLine["transport"], "unknown transport %q (tcp, udp)", a.Transport)
	}
	return a
}

func (d *dec) trafficSpec(n *node) TrafficSpec {
	f := d.fields(n, "traffic", "kind", "period_ms", "from", "size_kb", "constant", "start_ms", "stop_ms")
	return TrafficSpec{
		Kind: f.oneOf("kind", "unknown traffic kind %q (pings, probe-stream, downloads, nfs-load)",
			"", "pings", "probe-stream", "downloads", "nfs-load"),
		PeriodMS: f.float("period_ms", 20),
		From:     f.str("from"),
		SizeKB:   int(f.int("size_kb", 64)),
		Constant: f.bool("constant", false),
		StartMS:  f.int("start_ms", 0),
		StopMS:   f.int("stop_ms", 0),
	}
}

// eventKeys lists each action's allowed keys beyond at_ms/action.
var eventKeys = map[string][]string{
	"admit":        {"guest", "count"},
	"evict":        {"guest"},
	"kill-machine": {"machine", "detected", "repair_after_ms"},
	"drain":        {"machine"},
	"undrain":      {"machine"},
	"migrate":      {"guest", "to"},
	"inject-loss":  {"from", "to", "prob", "duplex"},
	"partition":    {"from", "to", "duplex"},
	"heal":         {"from", "to", "duplex"},
}

func (d *dec) event(n *node) Event {
	f := d.mapping(n, "event")
	at := f.int("at_ms", -1)
	if at < 0 {
		d.errf(n.line, "event needs at_ms")
	}
	ev := Event{
		AtMS:          at,
		Action:        f.kind("action", "unknown action %q", eventKeys, "at_ms", "action"),
		Line:          n.line,
		Guest:         f.str("guest"),
		Count:         int(f.int("count", 1)),
		Machine:       int(f.intOr("machine", "busiest", -1)),
		Busiest:       f.n.vals["machine"] != nil && f.n.vals["machine"].scalar == "busiest",
		Detected:      f.bool("detected", true),
		RepairAfterMS: f.int("repair_after_ms", 0),
		To:            f.str("to"),
		From:          f.str("from"),
		Prob:          f.float("prob", 0),
		Duplex:        f.bool("duplex", false),
	}
	// A fabric fault's `to` is a link endpoint, not a migration target.
	switch ev.Action {
	case "inject-loss", "partition", "heal":
		ev.ToAddr, ev.To = ev.To, ""
	}
	return ev
}

// generatorKeys lists each generator kind's allowed keys beyond
// kind/from_ms/to_ms.
var generatorKeys = map[string][]string{
	"arrivals":         {"guest", "rate_per_s", "mean_lifetime_ms"},
	"replica-failures": {"count"},
	"drains":           {"count", "mean_down_ms"},
	"crashes":          {"count", "detected", "mean_down_ms"},
}

func (d *dec) generator(n *node) Generator {
	f := d.mapping(n, "generator")
	return Generator{
		Kind: f.kind("kind", "unknown generator kind %q (arrivals, replica-failures, drains, crashes)",
			generatorKeys, "kind", "from_ms", "to_ms"),
		Line:           n.line,
		FromMS:         f.int("from_ms", 0),
		ToMS:           f.int("to_ms", 0),
		Guest:          f.str("guest"),
		RatePerS:       f.float("rate_per_s", 0),
		MeanLifetimeMS: f.float("mean_lifetime_ms", 0),
		Count:          int(f.int("count", 1)),
		Detected:       f.bool("detected", true),
		MeanDownMS:     f.float("mean_down_ms", 0),
	}
}

// assertKeys lists each check's allowed keys beyond check.
var assertKeys = map[string][]string{
	"lockstep":   {"guest", "strict"},
	"coresident": {"guests", "min_shared"},
	"stats":      {"field", "min", "max"},
	"oplog":      {"op", "detected", "min", "max", "within_ms", "not_fired"},
	"metric":     {"name", "label", "min", "max"},
	"journal":    {"guest", "min_checkpoints"},
}

func (d *dec) assertion(n *node) Assertion {
	f := d.mapping(n, "assertion")
	return Assertion{
		Check:          f.kind("check", "unknown check %q", assertKeys, "check"),
		Line:           n.line,
		Guest:          f.str("guest"),
		Guests:         f.strList("guests"),
		Strict:         f.bool("strict", false),
		Field:          f.str("field"),
		Op:             f.str("op"),
		Detected:       opt(f, "detected", f.bool),
		WithinMS:       f.int("within_ms", 0),
		Name:           f.str("name"),
		Label:          f.str("label"),
		Min:            opt(f, "min", f.float),
		Max:            opt(f, "max", f.float),
		NotFired:       f.bool("not_fired", false),
		MinShared:      int(f.int("min_shared", 1)),
		MinCheckpoints: f.int("min_checkpoints", 1),
	}
}
