// Command bench is the repository's benchmark: five named workloads, every
// metric printed by name with its unit, every output checked.
//
//	go run -C bench . --workload cloud-idle --seed 1 --seconds 20 --trace 0
//	go run -C bench .              # all five, end-to-end then traced
//	go run -C bench . -selfcheck   # the whole set twice, medians compared
//
// With --trace 0 a workload prints the end-to-end metrics, measured bare;
// with --trace 1 it makes the traced pass and prints the per-layer metrics.
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	reps      int
	smoke     bool
	selfcheck bool
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(specs)+1)
	for _, s := range specs {
		names = append(names, s.name)
	}
	return append(names, figsName)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames(), ", ")+" (default: all, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated plan")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds one workload measures for")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, bare; 1: the traced pass and the per-layer metrics")
	flag.IntVar(&o.reps, "reps", 0, "least number of timed repetitions (default: the workload's own)")
	flag.BoolVar(&o.smoke, "smoke", false, "toy sizes: exercises every code path in about a second a workload")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the whole set twice and compare the medians within the bounds")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seed == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n>0] [--seconds s] [--trace 0|1] [-reps n] [-smoke] [-selfcheck]")
		os.Exit(2)
	}
	var err error
	switch {
	case o.selfcheck:
		err = selfcheck(o, os.Stdout)
	case o.workload == "":
		_, err = runAll(o, os.Stdout)
	default:
		var res *result
		if res, err = runWorkload(o, newHostTimer(o.smoke), os.Stdout); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repetitionOf returns the workload's repetition, its spec (nil for
// paper-figs) and its least repetition count. shards > 0 overrides a fleet
// workload's shard count.
func repetitionOf(o options, ht *hostTimer, shards int) (repetition, *spec, int, error) {
	if o.workload == figsName {
		return figsRep(ht, o.seed, o.smoke), nil, 5, nil
	}
	s := specByName(o.workload)
	if s == nil {
		return nil, nil, 0, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.smoke {
		s = s.toy()
	}
	return fleetRep(ht, s, o.seed, shards), s, s.minReps, nil
}

// runWorkload measures one workload in this process, printing every metric
// by name with its unit to out, and returns the result line.
func runWorkload(o options, ht *hostTimer, out io.Writer) (*result, error) {
	rep, s, minReps, err := repetitionOf(o, ht, 0)
	if err != nil {
		return nil, err
	}
	if o.reps > 0 {
		minReps = o.reps
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.smoke {
		minReps, budget = 1, 0
	}
	fmt.Fprintf(out, "# workload %s seed %d trace %d\n", o.workload, o.seed, o.trace)
	if o.trace == 1 {
		return traced(o, s, rep, ht, out)
	}

	sum, err := measure(rep, budget, minReps)
	if err != nil {
		return nil, err
	}
	first := sum.first
	values := map[string]float64{
		"setup_s":          sum.setup.median,
		"wall_s_per_sim_s": sum.run.median / sum.simS,
		"allocs_per_sim_s": sum.allocs.median / sum.simS,
		"peak_rss_mb":      peakRSSMB(),
	}
	for _, m := range e2eMetrics {
		if v, ok := first.sim[m.name]; ok {
			values[m.name] = v
		}
	}
	res := &result{Attempted: sum.attempted, Failed: sum.failed, Metrics: map[string]metricValue{}}
	for _, m := range e2eMetrics {
		v := values[m.name]
		if v == 0 {
			res.Failed++
			sum.notes = append(sum.notes, "no value for "+m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
		fmt.Fprintf(out, "%-44s %14.6g %-6s %s\n", m.name, v, m.unit, m.clock)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "# %d timed repetitions of %.3g simulated s after 1 warm-up, %.1f s; host times scaled to reference speed (machine ran at %.2fx)\n",
		sum.reps, sum.simS, sum.elapsed.Seconds(), summarize(ht.speeds).median)
	fmt.Fprintf(out, "# run   s: median %.4f  min %.4f  q1 %.4f  q3 %.4f   raw wall: median %.4f  min %.4f\n",
		sum.run.median, sum.run.min, sum.run.q1, sum.run.q3, sum.runRaw.median, sum.runRaw.min)
	fmt.Fprintf(out, "# setup s: median %.4f  min %.4f  q1 %.4f  q3 %.4f   raw wall: median %.4f  min %.4f\n",
		sum.setup.median, sum.setup.min, sum.setup.q1, sum.setup.q3, sum.setupRaw.median, sum.setupRaw.min)
	fmt.Fprintf(out, "# open-loop requests are sent at their due instant on the simulated clock: generator lateness is 0 by construction\n")
	fmt.Fprintf(out, "# run digest %016x   attempted %d   failed %d\n", first.digest, res.Attempted, res.Failed)
	printSorted(out, "# sim  ", first.sim)
	for _, n := range sum.notes {
		fmt.Fprintln(out, "# FAILED:", n)
	}
	return res, nil
}

func printSorted(out io.Writer, prefix string, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%s%-44s %14.6g\n", prefix, k, m[k])
	}
}

// traced makes the traced pass of one workload: a warm-up and a bare
// repetition for reference, the traced repetition (metrics registry, CPU
// profile, spans), one with only the registry attached, one on the other
// shard count (fleet workloads), then the layer drivers. Every repetition must produce the
// same run digest.
func traced(o options, s *spec, rep repetition, ht *hostTimer, out io.Writer) (*result, error) {
	// The CPU profile covers the warm-up, the bare, the traced and the
	// registry-only repetition — every repetition on the workload's own shard
	// count. The kernel's profiling timer ticks at 100 Hz whatever rate is
	// asked for, and one two-second repetition yields too few samples to
	// rank layers. (End-to-end numbers never come from this pass.)
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, err
	}
	defer pprof.StopCPUProfile() // a no-op once stopped below
	if _, err := rep(nil, false); err != nil {
		return nil, err // the warm-up
	}
	bare, err := rep(nil, false)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: bare.attempted, Failed: bare.failed, Metrics: map[string]metricValue{}}
	notes := bare.notes
	same := func(what string, r *repResult, except string) {
		res.Attempted++
		if err := sameSim(bare, r, except); err != nil {
			res.Failed++
			notes = append(notes, fmt.Sprintf("%s repetition differs from the bare one: %v", what, err))
		}
	}

	tr := newTracer()
	ht.tr = tr
	withTrace, err := rep(tr, true)
	ht.tr = nil
	if err != nil {
		return nil, err
	}
	same("traced", withTrace, "")

	values := map[string]float64{}
	for k, v := range bare.sim {
		values[k] = v
	}
	for k, v := range withTrace.layer {
		values[k] = v
	}
	values["bench.client_ops"] = bare.sim["client_ops"]
	values["trace.overhead_pct"] = 100 * (windowRatio(withTrace, bare) - 1)
	values["runtime.gc_cycles"] = float64(bare.gcCycles)
	values["runtime.alloc_bytes_per_sim_s"] = float64(bare.allocBytes) / bare.simS
	if ev := bare.sim["sim.events_per_sim_s"]; ev > 0 {
		values["sim.ns_per_event"] = bare.runS / bare.simS / ev * 1e9
	}

	if s != nil {
		// Registry attached, nothing else: the observability plane's price.
		inst, err := rep(nil, true)
		if err != nil {
			return nil, err
		}
		same("instrumented", inst, "")
		values["metrics.attach_overhead_pct"] = 100 * (windowRatio(inst, bare) - 1)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(profile.Bytes())
	if err != nil {
		return nil, err
	}
	for bucket, share := range shares {
		values[cpuShareMetric(bucket)] = share
	}

	if s != nil {
		// The other shard count, one against two: the same digest, or the
		// partition leaked into the schedule. (Event-pool misses are per
		// loop, so they alone may differ.)
		k := 1
		if s.shardCount() == 1 {
			k = 2
		}
		other, _, _, _ := repetitionOf(o, ht, k)
		otherK, err := other(nil, false)
		if err != nil {
			return nil, err
		}
		same(fmt.Sprintf("%d-shard", k), otherK, "sim.event_pool_misses")
		if k == 2 {
			values["sim.coord_k2_speedup"] = windowRatio(bare, otherK)
		} else {
			values["sim.coord_k2_speedup"] = windowRatio(otherK, bare)
		}
	}

	scale := 1
	if o.smoke {
		scale = 200
	}
	drivers, err := runLayerDrivers(ht, tr, scale)
	if err != nil {
		return nil, err
	}
	for k, v := range drivers {
		values[k] = v
	}
	values["bench.ref_speed"] = summarize(ht.speeds).median

	sp := tr.begin("report")
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		fmt.Fprintf(out, "%-44s %14.6g %-6s %s\n", m.name, values[m.name], m.unit, m.source)
	}
	tr.end(sp)
	path, err := tr.write(o.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# run digest %016x   attempted %d   failed %d   %d spans in %s\n", bare.digest, res.Attempted, res.Failed, len(tr.spans), path)
	fmt.Fprintf(out, "# a 0 means the metric does not apply to this workload; (p) shares sum to 100\n")
	for _, n := range notes {
		fmt.Fprintln(out, "# FAILED:", n)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// windowRatio compares two repetitions of the same plan: the median, over
// the run's windows, of a's host time ÷ b's. One slow episode on the machine
// then spoils a window or two, not the comparison.
func windowRatio(a, b *repResult) float64 {
	ratios := make([]float64, len(a.windowS))
	for w := range ratios {
		ratios[w] = a.windowS[w] / b.windowS[w]
	}
	return summarize(ratios).median
}

// child runs one workload in a process of its own (so peak_rss_mb and the
// collector's state are per workload), relays its report to out and parses
// its result line.
func child(o options, workload string, trace int, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace)}
	if o.reps > 0 {
		args = append(args, "-reps", fmt.Sprint(o.reps))
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	text := strings.TrimRight(string(stdout), "\n")
	last := strings.LastIndexByte(text, '\n')
	fmt.Fprintln(out, text[:max(last, 0)])
	res := &result{}
	if err := json.Unmarshal([]byte(text[last+1:]), res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runAll measures every workload, end to end and then traced, and returns
// the end-to-end results by workload.
func runAll(o options, out io.Writer) (map[string]*result, error) {
	results := map[string]*result{}
	incorrect := 0
	for _, w := range workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(o, w, trace, out)
			if err != nil {
				return nil, err
			}
			if trace == 0 {
				results[w] = res
			}
			if !res.Correct {
				incorrect++
			}
		}
	}
	if incorrect > 0 {
		return results, fmt.Errorf("%d runs reported incorrect outputs", incorrect)
	}
	return results, nil
}

// selfcheck runs the whole set twice on the same seed and compares every
// end-to-end metric of every workload: the second value may not be worse
// than the first by more than the metric's bound, and simulated-clock
// metrics must be equal.
func selfcheck(o options, out io.Writer) error {
	var sets [2]map[string]*result
	for i := range sets {
		var err error
		if sets[i], err = runAll(o, io.Discard); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "%-14s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "gap", "bound")
	over := 0
	for _, w := range workloadNames() {
		for _, m := range e2eMetrics {
			a, b := sets[0][w].Metrics[m.name].Value, sets[1][w].Metrics[m.name].Value
			gap := (b - a) / a
			verdict := ""
			if gap > m.bound || (m.clock == "sim" && a != b) {
				over++
				verdict = "  OVER"
			}
			fmt.Fprintf(out, "%-14s %-20s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", w, m.name, a, b, 100*gap, 100*m.bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two runs of the same code", over)
	}
	return nil
}
