package main

// The repetition harness: warm-up, back-to-back repetitions of the same
// plan until the time budget is spent, exact-repeat checks on everything
// that is not a host-clock measurement, medians over the rest.

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"stopwatch/internal/sim"
)

// repResult is what one build → run → verify repetition reports.
type repResult struct {
	// Host clock, scaled to reference speed (speedref.go), and raw.
	setupS, runS       float64
	setupRawS, runRawS float64
	// windowS is the scaled host time of each window of the run phase.
	windowS []float64
	// Go runtime deltas over the run phase.
	mallocs, allocBytes, gcCycles uint64
	// simS is the simulated span the run phase covered.
	simS float64

	digest            uint64
	attempted, failed int
	notes             []string
	// sim holds simulated-clock and count metrics: identical in every
	// repetition of the same seed, or the workload fails.
	sim map[string]float64
	// layer holds per-layer numbers only the traced repetition can read
	// (registry counts, profile shares, per-figure host times).
	layer map[string]float64
}

// repetition runs one repetition. tr is nil for a bare one; instrument
// attaches the metrics registry (the traced repetition always does).
type repetition func(tr *tracer, instrument bool) (*repResult, error)

// heapCounters reads the allocation counters without stopping the world.
func heapCounters() (objects, bytes, cycles uint64) {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// timeSetup measures fn — the set-up phase of a repetition — into res.
func timeSetup(res *repResult, ht *hostTimer, fn func() error) (err error) {
	ht.resample() // the last sample predates the previous repetition's verify
	res.setupRawS, res.setupS, err = ht.time(fn)
	return err
}

// timeRun measures the run phase of a repetition into res, window by
// window, so that each window is scaled by the machine's speed around it.
func timeRun(res *repResult, ht *hostTimer, windows int, window func(w int) error) error {
	o0, b0, c0 := heapCounters()
	for w := 0; w < windows; w++ {
		raw, scaled, err := ht.time(func() error { return window(w) })
		res.runRawS, res.runS = res.runRawS+raw, res.runS+scaled
		res.windowS = append(res.windowS, scaled)
		if err != nil {
			return err
		}
	}
	o1, b1, c1 := heapCounters()
	res.mallocs, res.allocBytes, res.gcCycles = o1-o0, b1-b0, c1-c0
	return nil
}

// dist summarises one host-clock quantity over the timed repetitions.
type dist struct{ min, q1, median, q3 float64 }

func summarize(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 { // linear interpolation between order statistics
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return dist{min: s[0], q1: at(0.25), median: at(0.5), q3: at(0.75)}
}

// percentile is the nearest-rank q-quantile of sorted simulated durations,
// in milliseconds.
func percentile(sorted []sim.Time, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(rank, 0)].Milliseconds()
}

func sortTimes(v []sim.Time) []sim.Time {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// summary is a measured workload: the medians the driver compares, with the
// spread beside them.
type summary struct {
	reps              int  // timed repetitions (the warm-up is not counted)
	setup, run        dist // scaled to reference speed
	setupRaw, runRaw  dist
	allocs            dist
	simS              float64
	first             *repResult // the warm-up: reference for the exact-repeat checks
	attempted, failed int
	notes             []string
	elapsed           time.Duration
}

// sameSim reports the first simulated-clock or count metric that differs,
// except the named one.
func sameSim(a, b *repResult, except string) error {
	if a.digest != b.digest {
		return fmt.Errorf("run digest %016x != %016x", b.digest, a.digest)
	}
	if a.attempted != b.attempted || a.failed != b.failed {
		return fmt.Errorf("attempted/failed %d/%d != %d/%d", b.attempted, b.failed, a.attempted, a.failed)
	}
	for k, v := range a.sim {
		if b.sim[k] != v && k != except {
			return fmt.Errorf("%s %v != %v", k, b.sim[k], v)
		}
	}
	return nil
}

// measure runs rep 0 as a discarded warm-up, then timed repetitions of the
// same plan until the budget is spent (never fewer than minReps).
func measure(rep repetition, budget time.Duration, minReps int) (*summary, error) {
	start := time.Now()
	first, err := rep(nil, false)
	if err != nil {
		return nil, err
	}
	s := &summary{first: first, attempted: first.attempted, failed: first.failed, notes: first.notes, simS: first.simS}
	var setup, run, setupRaw, runRaw, allocs []float64
	last := time.Since(start)
	for n := 0; n < minReps || time.Since(start)+last <= budget; n++ {
		runtime.GC()
		t0 := time.Now()
		r, err := rep(nil, false)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		if err := sameSim(first, r, ""); err != nil {
			s.failed++
			s.notes = append(s.notes, fmt.Sprintf("repetition %d does not repeat: %v", n+1, err))
		}
		setup, run = append(setup, r.setupS), append(run, r.runS)
		setupRaw, runRaw = append(setupRaw, r.setupRawS), append(runRaw, r.runRawS)
		allocs = append(allocs, float64(r.mallocs))
	}
	s.reps = len(run)
	s.setup, s.run, s.allocs = summarize(setup), summarize(run), summarize(allocs)
	s.setupRaw, s.runRaw = summarize(setupRaw), summarize(runRaw)
	s.elapsed = time.Since(start)
	return s, nil
}
