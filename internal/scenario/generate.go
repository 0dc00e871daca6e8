// Generators: seeded stochastic sources of the same events the script
// spells out by hand — tenant arrivals and departures, replica failures,
// maintenance drains, machine crashes. Each draws from its own named
// stream and feeds the script's executors (admit, evict, killReplica,
// drain/undrain, killMachine + repair), so a generated operation is audited
// exactly like a scripted one.
package scenario

import (
	"fmt"
	"sort"

	"stopwatch"
)

// minUndrained is the placement-viable floor drains and crashes keep: with
// five or fewer machines in service a replacement has nowhere to go.
const minUndrained = 5

// retryEvery is how long a failure or crash that found no eligible target
// waits before looking again.
const retryEvery = stopwatch.Second

// generate schedules generator idx of the file.
func (r *runner) generate(idx int, g *Generator) {
	rng := r.c.Source().Stream(fmt.Sprintf("scenario:gen:%s:%d", g.Kind, idx))
	from, to := stopwatch.Millis(float64(g.FromMS)), stopwatch.Millis(float64(g.ToMS))
	loop := r.c.Loop()
	if g.Kind == "arrivals" {
		spec := r.spec(g.Guest)
		gap, life := stopwatch.Seconds(1/g.RatePerS), stopwatch.Millis(g.MeanLifetimeMS)
		var next func(at stopwatch.Time)
		next = func(at stopwatch.Time) {
			at += rng.ExpDur(gap)
			if at >= to {
				return
			}
			loop.At(at, "scenario:arrival", func() {
				// The lifetime is drawn whether or not the cloud has room, so
				// the stream does not depend on admission outcomes.
				lifetime := rng.ExpDur(life)
				r.admit(spec, func(id string) {
					if depart := loop.Now() + lifetime; depart < to {
						loop.At(depart, "scenario:departure", func() { r.evict(id, 0) })
					}
				})
				next(at)
			})
		}
		next(from)
		return
	}
	var fire func()
	switch g.Kind {
	case "replica-failures":
		fire = func() { r.failRandomReplica(rng) }
	case "drains":
		fire = func() { r.drainRandomMachine(rng, g) }
	case "crashes":
		fire = func() { r.crashRandomMachine(rng, g) }
	}
	times := make([]stopwatch.Time, g.Count)
	for i := range times {
		times[i] = from + rng.UniformDur(0, to-from)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, at := range times {
		loop.At(at, "scenario:"+g.Kind, fire)
	}
}

// downFor draws how long a drained or crashed machine stays out (0 =
// for the rest of the run).
func downFor(rng *stopwatch.Rand, g *Generator) stopwatch.Time {
	if g.MeanDownMS == 0 {
		return 0
	}
	return rng.ExpDur(stopwatch.Millis(g.MeanDownMS))
}

// failRandomReplica crashes one replica of a random resident guest that is
// neither mid-operation (a rejected replacement would leave the replica dead
// with no recovery) nor already degraded by a frozen replica.
func (r *runner) failRandomReplica(rng *stopwatch.Rand) {
	var eligible []*stopwatch.Guest
	for _, id := range r.cp.Pool().IDs() {
		g, ok := r.c.Guest(id)
		if _, busy := r.cp.InFlight(id); ok && !busy && len(frozenSlots(g)) == 0 {
			eligible = append(eligible, g)
		}
	}
	if len(eligible) == 0 {
		r.c.Loop().After(retryEvery, "scenario:replica-failures", func() { r.failRandomReplica(rng) })
		return
	}
	g := eligible[rng.Intn(len(eligible))]
	r.killReplica(g.ID, rng.Intn(g.NumReplicas()))
}

// inService lists the machines the pool has no reason against and that are
// not dead awaiting detection — the injector may know what it killed.
func (r *runner) inService() []int {
	var ms []int
	for m := 0; m < r.sc.Fleet.Machines; m++ {
		if !r.cp.Pool().Drained(m) && !r.c.Host(m).Failed() {
			ms = append(ms, m)
		}
	}
	return ms
}

// drainRandomMachine takes a random in-service machine down for
// maintenance, unless that would leave the cloud below its viable floor.
func (r *runner) drainRandomMachine(rng *stopwatch.Rand, g *Generator) {
	ms := r.inService()
	if len(ms) <= minUndrained {
		return
	}
	r.drain(ms[rng.Intn(len(ms))], downFor(rng, g))
}

// crashRandomMachine kills a random in-service machine that has residents,
// none of them mid-operation — preferring one with at least two, so the
// crash exercises a real multi-tenant evacuation.
func (r *runner) crashRandomMachine(rng *stopwatch.Rand, g *Generator) {
	ms := r.inService()
	var candidates, rich []int
	for _, m := range ms {
		residents := r.cp.Pool().Residents(m)
		busy := false
		for _, id := range residents {
			if _, b := r.cp.InFlight(id); b {
				busy = true
			}
		}
		if busy || len(residents) == 0 {
			continue
		}
		candidates = append(candidates, m)
		if len(residents) >= 2 {
			rich = append(rich, m)
		}
	}
	if len(ms) <= minUndrained || len(candidates) == 0 {
		r.c.Loop().After(retryEvery, "scenario:crashes", func() { r.crashRandomMachine(rng, g) })
		return
	}
	if len(rich) > 0 {
		candidates = rich
	}
	r.killMachine(candidates[rng.Intn(len(candidates))], g.Detected, downFor(rng, g))
}
