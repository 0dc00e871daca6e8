package obsrv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"stopwatch/internal/apps"
	"stopwatch/internal/controlplane"
	"stopwatch/internal/core"
	"stopwatch/internal/guest"
	"stopwatch/internal/metrics"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

func newPlane(t *testing.T, hosts, capacity int, seed uint64) *controlplane.ControlPlane {
	t.Helper()
	cfg := core.DefaultClusterConfig()
	cfg.Seed = seed
	cfg.Hosts = hosts
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := controlplane.New(c, controlplane.DefaultConfig(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func beacon(period vtime.Virtual) func() guest.App {
	return func() guest.App {
		b := apps.NewBeaconApp(period)
		b.Sink = "sink"
		return b
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// runScenario drives a small lifecycle: 3 admits, a rejected evict, a
// replica replacement, a real evict.
func runScenario(t *testing.T, cp *controlplane.ControlPlane) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if err := cp.Apply(controlplane.AdmitOp{GuestID: fmt.Sprintf("g%d", i), Factory: beacon(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Apply(controlplane.EvictOp{GuestID: "nope"}).Err; err == nil {
		t.Fatal("expected rejection")
	}
	cp.Cluster().Start()
	if err := cp.Cluster().Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	g, _ := cp.Cluster().Guest("g0")
	dead := g.Replica(0).Host()
	g.Replica(0).Runtime().Stop()
	if oc := cp.Apply(controlplane.ReplaceOp{GuestID: "g0", DeadHost: dead}); oc.Rejected() {
		t.Fatal(oc.Err)
	}
	if err := cp.Cluster().Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := cp.Apply(controlplane.EvictOp{GuestID: "g2"}).Err; err != nil {
		t.Fatal(err)
	}
}

func TestMetricsAndOpsEndpoints(t *testing.T) {
	cp := newPlane(t, 9, 3, 7)
	reg := metrics.NewRegistry()
	cp.InstrumentMetrics(reg)
	s := New()
	s.Attach(cp, reg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	runScenario(t, cp)
	base := "http://" + s.Addr()

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", code, body)
	}
	for _, want := range []string{
		"# TYPE stopwatch_cp_ops_completed_total counter",
		`stopwatch_cp_ops_completed_total{kind="admit"} 3`,
		"stopwatch_cp_phase_latency_ns_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = httpGet(t, base+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(body, `"name": "stopwatch_cp_ops_started_total"`) {
		t.Fatalf("/metrics.json = %d:\n%s", code, body)
	}

	// The published page is a snapshot: it reflects the last completion,
	// not a live read (the gauge of residents after the final evict is 2).
	if !strings.Contains(body, `"name": "stopwatch_cp_residents"`) {
		t.Fatalf("gauge family missing:\n%s", body)
	}

	var all []OpRecord
	code, body = httpGet(t, base+"/ops")
	if code != http.StatusOK {
		t.Fatalf("/ops = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatalf("/ops not json: %v\n%s", err, body)
	}
	// 3 admits + rejected evict + replace + evict = 6 completed records.
	if len(all) != 6 {
		t.Fatalf("/ops returned %d records, want 6:\n%s", len(all), body)
	}
	for i, rec := range all {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("records out of log order: %+v", all)
		}
	}

	var admits []OpRecord
	_, body = httpGet(t, base+"/ops?kind=admit")
	if err := json.Unmarshal([]byte(body), &admits); err != nil || len(admits) != 3 {
		t.Fatalf("kind filter: %v %s", err, body)
	}

	var g0 []OpRecord
	_, body = httpGet(t, base+"/ops?guest=g0")
	if err := json.Unmarshal([]byte(body), &g0); err != nil || len(g0) != 2 {
		t.Fatalf("guest filter want admit+replace for g0: %v %s", err, body)
	}

	var replaced []OpRecord
	_, body = httpGet(t, base+"/ops?kind=replace")
	if err := json.Unmarshal([]byte(body), &replaced); err != nil || len(replaced) != 1 {
		t.Fatalf("replace filter: %v %s", err, body)
	}
	dead := replaced[0].Machine
	if dead < 0 {
		t.Fatalf("replace record has no machine: %+v", replaced[0])
	}
	var byHost []OpRecord
	_, body = httpGet(t, base+fmt.Sprintf("/ops?host=%d", dead))
	if err := json.Unmarshal([]byte(body), &byHost); err != nil || len(byHost) != 1 {
		t.Fatalf("host filter: %v %s", err, body)
	}
	if len(replaced[0].Phases) == 0 || replaced[0].Phases[0].Phase != "pause" {
		t.Fatalf("replace record phases: %+v", replaced[0].Phases)
	}

	var ranged []OpRecord
	_, body = httpGet(t, base+"/ops?from=2&to=3")
	if err := json.Unmarshal([]byte(body), &ranged); err != nil || len(ranged) != 2 {
		t.Fatalf("seq range filter: %v %s", err, body)
	}

	// The rejected evict is marked.
	var rej []OpRecord
	_, body = httpGet(t, base+"/ops?kind=evict")
	if err := json.Unmarshal([]byte(body), &rej); err != nil || len(rej) != 2 {
		t.Fatalf("evict records: %v %s", err, body)
	}
	if !rej[0].Rejected || rej[0].Err == "" {
		t.Fatalf("rejected evict record: %+v", rej[0])
	}
}

func TestOpsStreamDumpAndFollow(t *testing.T) {
	cp := newPlane(t, 9, 3, 7)
	reg := metrics.NewRegistry()
	cp.InstrumentMetrics(reg)
	s := New()
	s.Attach(cp, reg)
	if err := s.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	if err := cp.Apply(controlplane.AdmitOp{GuestID: "g0", Factory: beacon(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}

	// Dump mode: buffered lines, then EOF.
	code, body := httpGet(t, base+"/ops/stream")
	if code != http.StatusOK {
		t.Fatalf("/ops/stream = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	// Admit emits started + 2 phases + completed.
	if len(lines) != 4 {
		t.Fatalf("dump returned %d lines, want 4:\n%s", len(lines), body)
	}
	var first streamEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Event != "started" || first.Seq != 1 || !strings.Contains(first.Op, "admit g0") {
		t.Fatalf("first stream line: %+v", first)
	}

	// Follow mode: a tailing client sees lines produced after it connected.
	resp, err := http.Get(base + "/ops/stream?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			got <- sc.Text()
		}
		close(got)
	}()
	// Drain the backlog (4 lines) first.
	for i := 0; i < 4; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out draining stream backlog")
		}
	}
	if err := cp.Apply(controlplane.AdmitOp{GuestID: "g1", Factory: beacon(vtime.Virtual(5 * sim.Millisecond))}).Err; err != nil {
		t.Fatal(err)
	}
	var tail []string
	for i := 0; i < 4; i++ {
		select {
		case line := <-got:
			tail = append(tail, line)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out tailing; got %v", tail)
		}
	}
	var ev streamEvent
	if err := json.Unmarshal([]byte(tail[len(tail)-1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != "completed" || ev.Seq != 2 {
		t.Fatalf("tail end: %+v", ev)
	}
	// Closing the server terminates the follower.
	s.Close()
	select {
	case _, open := <-got:
		if open {
			// One more buffered line is fine; the channel must close soon.
			select {
			case _, open = <-got:
				if open {
					t.Fatal("follower still open after server close")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("follower did not terminate on server close")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not terminate on server close")
	}
}

func TestMetricsBeforeFirstPublish(t *testing.T) {
	s := New()
	if err := s.Start(""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, _ := httpGet(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unpublished /metrics = %d, want 503", code)
	}
}

func TestRefusesNonLoopback(t *testing.T) {
	s := New()
	if err := s.Start("0.0.0.0:0"); err == nil {
		s.Close()
		t.Fatal("0.0.0.0 accepted")
	}
	if err := s.Start("example.com:80"); err == nil {
		s.Close()
		t.Fatal("non-loopback hostname accepted")
	}
}
