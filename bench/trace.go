package main

// Spans recorded by the benchmark around every call it makes into the
// system. They stay in memory during the traced repetition and are written
// to out/trace-<workload>.json when the run ends. A nil *tracer is the bare
// mode: every method is a no-op, so timed repetitions record nothing.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"stopwatch/internal/controlplane"
)

// span is one traced interval. Host-clock spans carry start/end in
// nanoseconds since the tracer was created; sim-clock spans (client
// requests) carry simulated nanoseconds and Clock "sim".
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"` // span that caused this one; 0 = root
	Name   string           `json:"name"`
	Clock  string           `json:"clock,omitempty"` // "" = host
	Key    uint64           `json:"key,omitempty"`   // op seq or request id
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

type tracer struct {
	t0     time.Time
	spans  []span
	parent int // current enclosing span (the run window), for Apply spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a host-clock span under the current parent and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// setParent makes span id the parent of spans begun from now on.
func (t *tracer) setParent(id int) {
	if t != nil {
		t.parent = id
	}
}

// endApply closes a ControlPlane.Apply span, keyed by the op's log seq.
func (t *tracer) endApply(id int, oc *controlplane.Outcome) {
	if t != nil {
		t.end(id)
		t.spans[id-1].Key = oc.Seq
	}
}

// simSpan records a finished simulated-clock interval.
func (t *tracer) simSpan(name string, key uint64, start, end int64) {
	if t != nil {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Clock: "sim", Key: key, Start: start, End: end})
	}
}

// benchDir is the benchmark's own directory: the working directory under
// `go run -C bench .` and `go test`, ./bench when a built binary is started
// from the repository root.
func benchDir() string {
	if _, err := os.Stat("ledger.go"); err != nil {
		if _, err := os.Stat(filepath.Join("bench", "ledger.go")); err == nil {
			return "bench"
		}
	}
	return "."
}

// write stores the spans as out/trace-<workload>.json in the benchmark's
// directory.
func (t *tracer) write(workload string) (string, error) {
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
