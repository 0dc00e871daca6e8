package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var wellFormed = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestLedgerMatchesManifest holds BENCHMARK.json, the ledger and the
// workload table in agreement, in both directions.
func TestLedgerMatchesManifest(t *testing.T) {
	m := readManifest(t)
	names := workloadNames()
	if len(m.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(names))
	}
	whys := map[string]string{figsName: figsWhy}
	for _, s := range specs {
		whys[s.name] = s.why
	}
	for i, w := range m.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
		if w.Why != whys[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why differs from the spec's, or is not 1..200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !wellFormed.MatchString(name) {
			t.Errorf("name %q is not well-formed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	e2e := map[string]bool{}
	if len(m.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the ledger %d", len(m.EndToEnd), len(e2eMetrics))
	}
	for i, got := range m.EndToEnd {
		want := e2eMetrics[i]
		unique(got.Name)
		e2e[got.Name] = true
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better || got.Bound != want.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, ledger %+v", i, got, want)
		}
		if want.unit == "" || want.clock == "" || want.what == "" || (want.better != "lower" && want.better != "higher") || want.bound <= 0 || want.bound > 0.25 {
			t.Errorf("end-to-end %s lacks a unit, clock, direction, description or a bound in (0, 0.25]", want.name)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s")
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the ledger %d", len(m.PerLayer), len(layerMetrics))
	}
	workloads := map[string]bool{wAll: true}
	for _, n := range names {
		workloads[n] = true
	}
	for i, got := range m.PerLayer {
		want := layerMetrics[i]
		unique(got.Name)
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better() {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, ledger %+v", i, got, want)
		}
		if !e2e[want.moves] || !workloads[want.on] {
			t.Errorf("per-layer %s must name the end-to-end metric and the workload it should move, has %q on %q", want.name, want.moves, want.on)
		}
		if want.layer() == want.name || len(want.source) != 1 {
			t.Errorf("per-layer %s needs a layer prefix and a source", want.name)
		}
	}
}

// TestSmoke runs every workload and every layer driver at toy size, bare
// and traced, and checks that what is emitted is exactly what BENCHMARK.json
// names, that every output check passed, and that the trace adds up.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	ht := newHostTimer(true)
	for _, w := range workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			res, err := runWorkload(options{workload: w, seed: 1, trace: trace, smoke: true}, ht, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, e := range m.EndToEnd {
					want[e.Name] = e.Unit
				}
			} else {
				for _, e := range m.PerLayer {
					want[e.Name] = e.Unit
				}
			}
			for name, v := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("%s trace %d emits %s in %q, BENCHMARK.json has %q (listed: %v)", w, trace, name, v.Unit, unit, ok)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (trace == 0 && v.Value == 0) {
					t.Errorf("%s trace %d: %s = %v", w, trace, name, v.Value)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace %d does not emit %s", w, trace, name)
				}
			}
			if trace == 1 {
				checkTrace(t, w, res)
			}
		}
	}
}

// checkTrace reads the workload's trace file back: the run span's children
// (windows and speed-reference samples) must cover it, and the profile
// shares must sum to 100.
func checkTrace(t *testing.T, workload string, res *result) {
	data, err := os.ReadFile("out/trace-" + workload + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace of %s: %v", workload, err)
	}
	var run *span
	for i := range file.Spans {
		if file.Spans[i].Name == "run" {
			run = &file.Spans[i]
		}
	}
	if run == nil {
		t.Fatalf("trace of %s has no run span", workload)
	}
	covered, windows := int64(0), 0
	for _, s := range file.Spans {
		if s.Parent == run.ID && s.Clock == "" {
			covered += s.End - s.Start
			if s.Name != "speedref" {
				windows++
			}
		}
	}
	if total := run.End - run.Start; windows < 3 || math.Abs(float64(covered-total)) > 0.05*float64(total) {
		t.Errorf("trace of %s: %d windows cover %d of the run span's %d ns", workload, windows, covered, total)
	}
	shares := 0.0
	for name, v := range res.Metrics {
		if strings.HasSuffix(name, "cpu_share") {
			shares += v.Value
		}
	}
	if math.Abs(shares-100) > 1 {
		t.Errorf("%s: CPU shares sum to %.2f", workload, shares)
	}
}
