package main

// The seeded plan generator, shared by the four fleet workloads. A plan is
// everything the benchmark will ask of the system — which tenants exist and
// when, every open-loop client request with its due instant, every
// closed-loop client's script, every control-plane operation — generated
// from (workload, seed) before the clock starts. The program under test
// only ever sees these generated inputs; nothing is drawn while it runs.

import (
	"fmt"
	"runtime"
	"sort"

	"stopwatch/internal/apps"
	"stopwatch/internal/gateway"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
)

// tenantKind selects a tenant's guest app and the client that loads it.
type tenantKind uint8

const (
	// kindEcho is the benchmark's own small replying app (echoApp): a 2 ms
	// self-tick to a sink plus one reply per ping. Open-loop pinged.
	kindEcho tenantKind = iota
	// kindFileTCP / kindFileUDP are apps.FileServer guests, each with one
	// closed-loop client cycling 1/10/100 KB downloads.
	kindFileTCP
	kindFileUDP
	// kindNFS is an apps.NFSServer under an open-loop paper-mix stream on
	// 1x2 RPC slots.
	kindNFS
)

// spec is one workload's shape. Every sized constant lives in the table
// below with the property it was tuned to.
type spec struct {
	name string
	why  string

	hosts, capacity int
	// shards is the fabric shard count; 0 means min(nproc, 2).
	shards int
	// simDur is the simulated span of one repetition. No request is due in
	// its last tail, so every issued request has time to complete.
	simDur, tail sim.Time
	// tenants are admitted during set-up; mix[i%len(mix)] is tenant i's kind.
	tenants int
	mix     []tenantKind
	// saturate attempts one admission more than tenants during set-up; the
	// plan expects it to be rejected with ErrNoFeasibleHost.
	saturate bool
	// echoPPS and nfsOPS are the open-loop Poisson rates per tenant;
	// fileClients is the closed-loop download clients per file server.
	echoPPS, nfsOPS float64
	fileClients     int
	// churnEvery evicts one tenant (round-robin) and admits its successor
	// this often; 0 means no churn. guard silences a tenant's clients this
	// long before its eviction, so no request is in flight when it leaves.
	churnEvery, guard sim.Time
	// faultRate is fault operations per simulated second (fleet-ops only):
	// kill-replica→replace, migrate, drain→undrain, crash→evacuate→repair.
	faultRate float64
	// checkpointInstr / migrate / detector switch on journal checkpoints,
	// planned migration and the stall detector.
	checkpointInstr   int64
	migrate, detector bool
	// warmDisk selects Fig 6's disk regime (1 ms seek, 0.3 ms mean jitter:
	// a server whose working set is cached). With the default cold disk,
	// file and NFS tenants sharing a machine queue past Δd and diverge.
	warmDisk bool
	// minReps is the least number of timed repetitions a run reports.
	minReps int
}

// fleetDeltaN is the network delivery offset Δn of every fleet workload. A
// benchmark needs workloads on which no operation fails, and at the default
// 12 ms a synchrony divergence (a median delivery time already in some
// replica's past) turns up on one seed in thirty on cloud-idle and one in
// twenty on the packed cloud-loaded, at any request rate; at 16 ms, the top
// of the shipped calibration sweep, on none in sixty and one in a hundred;
// at 20 ms on none in a hundred.
const fleetDeltaN = 20 * sim.Millisecond

// The five workloads. Sizes were tuned on the 2-vCPU reference box so that a
// repetition takes 1.5–3 s of host time (a 20 s run then holds at least
// minReps timed repetitions) while keeping the property named in why.
var specs = []*spec{
	{
		name: "cloud-idle",
		why:  "200 mostly idle machines, the BenchmarkClusterScale/200 shape: chunk ticks, pacing beacons and PGM heartbeats are most of the work, so sim scheduler and vmm exec/pacing cost dominate",
		// The BenchmarkClusterScale/200 shape (one self-ticking tenant per
		// machine, 100 pps pings, one evict+re-admit per 20 sim-ms) so the
		// BENCH_5..8 trajectory maps onto it; 0.6 sim-s instead of 1 to fit
		// seven repetitions into a run.
		hosts: 200, capacity: 4, shards: 1,
		simDur: 600 * sim.Millisecond, tail: 100 * sim.Millisecond,
		tenants: 200, mix: []tenantKind{kindEcho}, echoPPS: 100,
		churnEvery: 20 * sim.Millisecond, guard: 60 * sim.Millisecond,
		minReps: 5,
	},
	{
		name:  "cloud-wide",
		why:   "1000 machines on min(nproc,2) shards: heap five times deeper, coordinator windows and cross-shard exchange, and a 1000-admission set-up",
		hosts: 1000, capacity: 4, shards: 0,
		simDur: 150 * sim.Millisecond, tail: 50 * sim.Millisecond,
		tenants: 1000, mix: []tenantKind{kindEcho}, echoPPS: 100,
		churnEvery: 20 * sim.Millisecond, guard: 60 * sim.Millisecond,
		minReps: 5,
	},
	{
		name: "cloud-loaded",
		why:  "24 machines packed to rejection under echo, file and NFS load at the highest rate that stays clean: transport, apps, the Dom0 disk model and the per-packet path under contention",
		// 31 tenants fill 24x4 slots (the 32nd admission is the plan's one
		// expected rejection): half echo, a quarter file servers (TCP and
		// UDP alternating, one closed-loop client each), a quarter NFS at
		// 25 ops/s (two RPC slots at Δn = 20 ms serve about 44). 200 pps per
		// echo tenant is clean on 40 seeds and 300 pps
		// is not, so the workload runs 25 % under that; a second download
		// loop per file server costs a divergence on one seed in sixty, a
		// third on one in forty.
		hosts: 24, capacity: 4, shards: 1,
		simDur: 6 * sim.Second, tail: 1200 * sim.Millisecond,
		tenants: 31, saturate: true,
		mix:     []tenantKind{kindEcho, kindFileTCP, kindEcho, kindNFS, kindEcho, kindFileUDP, kindEcho, kindNFS},
		echoPPS: 150, nfsOPS: 25, fileClients: 1, warmDisk: true,
		minReps: 5,
	},
	{
		name:  "fleet-ops",
		why:   "32 machines under a script of replace, migrate, drain and crash, with checkpoints, planned migration and the stall detector on: barrier, placement, journal replay and view reconcile get used",
		hosts: 32, capacity: 4, shards: 1,
		simDur: 12 * sim.Second, tail: 2500 * sim.Millisecond,
		tenants: 24, mix: []tenantKind{kindEcho}, echoPPS: 50,
		churnEvery: 1500 * sim.Millisecond, guard: 400 * sim.Millisecond,
		faultRate:       14,
		checkpointInstr: 4_000_000, migrate: true, detector: true,
		minReps: 5,
	},
}

// shardCount resolves the spec's fabric shard count on this machine.
func (s *spec) shardCount() int {
	if s.shards > 0 {
		return s.shards
	}
	return min(runtime.NumCPU(), 2)
}

// toy is the spec at smoke-test size: the same code paths in a fraction of
// a second. The saturating workload keeps its fleet, so that its expected
// rejection still is one; the fault script keeps room for a crash to be
// detected, evacuated and repaired.
func (s *spec) toy() *spec {
	t := *s
	t.minReps = 1
	t.simDur, t.tail = min(s.simDur, 400*sim.Millisecond), min(s.tail, 150*sim.Millisecond)
	t.hosts, t.tenants = min(s.hosts, 12), min(s.tenants, 6)
	if s.saturate {
		t.hosts, t.tenants = s.hosts, s.tenants
		t.simDur, t.tail = 700*sim.Millisecond, 600*sim.Millisecond
	}
	if s.faultRate > 0 {
		t.hosts, t.tenants = 8, 4
		t.simDur, t.tail = 5500*sim.Millisecond, s.tail
	}
	return &t
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// tenant is one guest's planned life. admitAt < 0 means admitted during
// set-up; evictAt == 0 means it stays to the end.
type tenant struct {
	id               string
	svc              netsim.Addr
	kind             tenantKind
	admitAt, evictAt sim.Time
}

// request is one open-loop client request, sent at exactly its due instant
// on the simulated clock (generator lateness is zero by construction) and
// timed from it.
type request struct {
	due    sim.Time
	tenant int32
	nfs    apps.NFSRequest // kindNFS only
}

// fetchStep is one step of a closed-loop file client's script: download
// bytes, then think before the next step. The script wraps around.
type fetchStep struct {
	bytes int
	think sim.Time
}

type opKind uint8

const (
	opAdmit opKind = iota
	opEvict
	opReplace
	opMigrate
	opDrain
	opCrash
)

// ctlOp is one planned control-plane action. Targets the plan can know are
// named (tenant, slot); machine-level targets start at machine and take the
// first eligible one at run time, since residency is the system's decision.
type ctlOp struct {
	at           sim.Time
	kind         opKind
	tenant, slot int
	machine      int
	// mayReject marks the saturating admission: ErrNoFeasibleHost is its
	// expected outcome.
	mayReject bool
	// hold is the maintenance or repair window that follows a drain or crash.
	hold sim.Time
}

// plan is the whole generated input of one repetition.
type plan struct {
	spec    *spec
	tenants []tenant
	reqs    []request             // sorted by due
	scripts map[int][][]fetchStep // closed-loop clients' scripts, by tenant index
	ops     []ctlOp               // sorted by at
}

// trafficEnd is the instant after which no request is due.
func (s *spec) trafficEnd() sim.Time { return s.simDur - s.tail }

func (p *plan) addTenant(kind tenantKind, admitAt sim.Time) int {
	id := fmt.Sprintf("t%04d", len(p.tenants))
	p.tenants = append(p.tenants, tenant{id: id, svc: gateway.ServiceAddr(id), kind: kind, admitAt: admitAt})
	return len(p.tenants) - 1
}

// generate builds the plan for one (workload, seed).
func generate(s *spec, seed uint64) *plan {
	rng := sim.NewSource(seed).Stream("bench-plan:" + s.name)
	p := &plan{spec: s, scripts: make(map[int][][]fetchStep)}
	end := s.trafficEnd()

	slots := make([]int, s.tenants) // churn slot → current tenant index
	for i := range slots {
		slots[i] = p.addTenant(s.mix[i%len(s.mix)], -1)
	}
	if s.saturate {
		i := p.addTenant(kindEcho, -1)
		p.tenants[i].evictAt = -1 // never resident: gets no clients
		p.ops = append(p.ops, ctlOp{at: -1, kind: opAdmit, tenant: i, mayReject: true})
	}

	// Churn: evict slot k's tenant and admit its successor in the same
	// instant, round-robin over the slots, first at a seeded offset.
	if s.churnEvery > 0 {
		t := s.churnEvery/2 + rng.UniformDur(0, s.churnEvery/2)
		for k := 0; t < end; k, t = k+1, t+s.churnEvery {
			slot := k % len(slots)
			old := slots[slot]
			p.tenants[old].evictAt = t
			succ := p.addTenant(p.tenants[old].kind, t)
			slots[slot] = succ
			p.ops = append(p.ops,
				ctlOp{at: t, kind: opEvict, tenant: old},
				ctlOp{at: t, kind: opAdmit, tenant: succ})
		}
	}

	// Clients. A tenant is loaded from just after its admission until guard
	// before its eviction (or the end of traffic).
	mix, mixTotal := apps.PaperMix(), 0.0
	for _, m := range mix {
		mixTotal += m.Weight
	}
	for i := range p.tenants {
		tn := &p.tenants[i]
		if tn.evictAt < 0 {
			continue
		}
		from, to := tn.admitAt+5*sim.Millisecond, end
		if tn.admitAt < 0 {
			from = 5 * sim.Millisecond
		}
		if tn.evictAt > 0 && tn.evictAt-s.guard < to {
			to = tn.evictAt - s.guard
		}
		switch tn.kind {
		case kindEcho:
			gap := sim.FromSeconds(1 / s.echoPPS)
			for t := from + rng.ExpDur(gap); t < to; t += rng.ExpDur(gap) {
				p.reqs = append(p.reqs, request{due: t, tenant: int32(i)})
			}
		case kindNFS:
			gap := sim.FromSeconds(1 / s.nfsOPS)
			for t := from + 20*sim.Millisecond + rng.ExpDur(gap); t < to; t += rng.ExpDur(gap) {
				req := apps.NFSRequest{Op: mix[len(mix)-1].Op}
				x := rng.Float64() * mixTotal
				for _, m := range mix {
					if x < m.Weight {
						req.Op = m.Op
						break
					}
					x -= m.Weight
				}
				if req.Op == apps.OpRead || req.Op == apps.OpWrite {
					req.Bytes = 8192
				}
				p.reqs = append(p.reqs, request{due: t, tenant: int32(i), nfs: req})
			}
		case kindFileTCP, kindFileUDP:
			// Each client: 1/10/100 KB from a seeded starting size, 10–30 ms
			// think time.
			for c := 0; c < s.fileClients; c++ {
				script := make([]fetchStep, 12)
				off := rng.Intn(3)
				for k := range script {
					kb := []int{1, 10, 100}[(k+off)%3]
					script[k] = fetchStep{bytes: kb << 10, think: rng.UniformDur(10*sim.Millisecond, 30*sim.Millisecond)}
				}
				p.scripts[i] = append(p.scripts[i], script)
			}
		}
	}
	sort.SliceStable(p.reqs, func(a, b int) bool { return p.reqs[a].due < p.reqs[b].due })

	if s.faultRate > 0 {
		p.planFaults(rng)
	}
	sort.SliceStable(p.ops, func(a, b int) bool { return p.ops[a].at < p.ops[b].at })
	return p
}

// planFaults draws the fleet-ops fault script. The number of operations is
// fixed by the rate (so that seeds differ in where faults land, not in how
// much work a repetition is): one per 1/faultRate slot, at a seeded instant
// inside its slot, alternately kill→replace and migrate on a tenant the plan
// knows is resident and not recently targeted — except that every machineGap
// the slot's op is a drain or a crash, alternately.
func (p *plan) planFaults(rng *sim.Rand) {
	s := p.spec
	const (
		settle      = 500 * sim.Millisecond  // a tenant is left alone this long after admission
		recovery    = 1000 * sim.Millisecond // ... and this long after a fault op, and before its eviction
		machineHold = 1500 * sim.Millisecond // maintenance / repair window
		machineGap  = 4 * sim.Second         // one machine-level op in flight at a time
	)
	lastHit := make([]sim.Time, len(p.tenants))
	for i := range lastHit {
		lastHit[i] = -recovery
	}
	slot := sim.FromSeconds(1 / s.faultRate)
	nextMachine, machineOps, tenantOps := sim.Second, 0, 0
	for from := sim.Time(settle); from+slot < s.trafficEnd()-recovery; from += slot {
		t := from + rng.UniformDur(0, slot)
		if t >= nextMachine {
			kind := []opKind{opDrain, opCrash}[machineOps%2]
			machineOps++
			nextMachine = t + machineGap
			p.ops = append(p.ops, ctlOp{at: t, kind: kind, machine: rng.Intn(s.hosts), hold: machineHold})
			continue
		}
		var eligible []int
		for i, tn := range p.tenants {
			if tn.admitAt+settle <= t && (tn.evictAt == 0 || tn.evictAt >= t+recovery) && lastHit[i]+recovery <= t {
				eligible = append(eligible, i)
			}
		}
		if len(eligible) == 0 {
			continue
		}
		i := eligible[rng.Intn(len(eligible))]
		lastHit[i] = t
		kind := []opKind{opReplace, opMigrate}[tenantOps%2]
		tenantOps++
		p.ops = append(p.ops, ctlOp{at: t, kind: kind, tenant: i, slot: rng.Intn(3), machine: rng.Intn(s.hosts)})
	}
}
