package vmm

import (
	"encoding/binary"
	"fmt"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// Tickless execution against its reference: the same scripted fixture run
// with exec arming one event per exit that can do something, and again with
// the test seam that arms every boundary (what exec did before it went
// tickless). Everything a replica lets the outside see — injected
// interrupts, proposals, pacing beacons, counters, checkpoints, outputs —
// must be equal, to the nanosecond and to the branch.

// equivApp echoes packets, reads the disk on every third one, arms an app
// timer on every fourth, and can be checkpointed.
type equivApp struct{ packets, timers uint64 }

func (a *equivApp) Boot(c guest.Ctx) {
	c.Compute(300_000)
	c.DiskRead("boot", 4096)
}

func (a *equivApp) OnPacket(c guest.Ctx, p guest.Payload) {
	a.packets++
	c.Compute(40_000 + int64(a.packets%5)*90_000)
	if a.packets%3 == 0 {
		c.DiskRead("blk", 16<<10)
	}
	if a.packets%4 == 0 {
		c.SetTimer(vtime.Virtual(3*sim.Millisecond), "t")
	}
	c.Send(p.Src, p.Size, uint64(c.Clock().Now()))
}

func (a *equivApp) OnDiskDone(c guest.Ctx, d guest.DiskDone) { c.Compute(20_000) }

func (a *equivApp) OnTimer(c guest.Ctx, tag string) {
	a.timers++
	c.Compute(700_000) // spans boundaries: a busy guest skips them too
	c.Send("timer-sink", 64, a.timers)
}

func (a *equivApp) SnapshotAppend(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, a.packets)
	return binary.LittleEndian.AppendUint64(buf, a.timers)
}

func (a *equivApp) RestoreSnapshot(data []byte) error {
	if len(data) != 16 {
		return fmt.Errorf("equivApp snapshot of %d bytes", len(data))
	}
	a.packets = binary.LittleEndian.Uint64(data)
	a.timers = binary.LittleEndian.Uint64(data[8:])
	return nil
}

// toggleApp is the busy co-resident: compute bursts separated by idle gaps,
// so the host's busy population — and every resident's rate — keeps
// changing at times unrelated to anyone's boundaries.
type toggleApp struct{ n int64 }

func (a *toggleApp) Boot(c guest.Ctx)                         { c.SetTimer(0, "b") }
func (a *toggleApp) OnPacket(c guest.Ctx, p guest.Payload)    {}
func (a *toggleApp) OnDiskDone(c guest.Ctx, d guest.DiskDone) {}
func (a *toggleApp) OnTimer(c guest.Ctx, tag string) {
	a.n++
	c.Compute(600_000 + a.n%7*130_000)
	if a.n%4 == 0 {
		c.DiskRead("load", 32<<10)
	}
	c.SetTimer(vtime.Virtual(5*sim.Millisecond), "b")
}

// equivReplica is one replica's wiring in the fixture.
type equivReplica struct {
	rt *Runtime
	nd *NetDevice
	ec *EpochCoordinator
}

// equivFixture is three hosts (and a spare) running two replicated guests
// side by side — started in the same instant, so their boundaries coincide
// on every host — plus a toggling co-resident on the first host.
type equivFixture struct {
	t     testing.TB
	every bool
	late  int // exec.late for every runtime: a mutant's
	loop  *sim.Loop
	hosts []*Host
	boots []sim.Time
	// groups[g][k] is guest g's replica k; journals[g] its journal.
	groups   [][]*equivReplica
	journals []*Journal
	names    [][]string // live origin names per guest
	view     []uint64
	linkSeq  map[string]uint64
	mute     map[*Runtime]bool // pace reports to these are dropped
	// log holds what each machine (and the script, under "") let the
	// outside see, in order. Only a machine's own order is defined: events
	// of one nanosecond on different machines share no state, and the
	// sharded simulator does not order them either.
	log   map[string][]string
	exits map[*Runtime]int
}

func (f *equivFixture) logf(machine, format string, a ...any) {
	f.log[machine] = append(f.log[machine], fmt.Sprintf("%d ", f.loop.Now())+fmt.Sprintf(format, a...))
}

// arrive schedules fn as a fabric arrival (band 1) d from now, keyed like a
// packet on src's link: by the sender and its send count.
func (f *equivFixture) arrive(src string, d sim.Time, fn func()) {
	f.linkSeq[src]++
	f.loop.AtArrivalTimer(f.loop.Now()+d, "equiv:arrival", func(a, _ any, _ uint64) { a.(func())() }, fn, nil, 0,
		uint64(src[0]), f.linkSeq[src])
}

func newEquivFixture(t testing.TB, seed uint64, every bool) *equivFixture {
	t.Helper()
	f := &equivFixture{t: t, every: every, loop: sim.NewLoop(), linkSeq: map[string]uint64{},
		mute: map[*Runtime]bool{}, log: map[string][]string{}, exits: map[*Runtime]int{}}
	src := sim.NewSource(seed)
	cfg := DefaultConfig()
	cfg.EpochInstr = 40 * cfg.ExitEvery
	cfg.CheckpointInstr = 16 * cfg.ExitEvery
	for i, name := range []string{"A", "B", "C", "D"} {
		drift := (float64((seed*7+uint64(i)*13)%41) - 20.5) * 1e-6 // never zero
		h, err := NewHost(name, f.loop, src.Stream("host:"+name), sim.NewClock(sim.Time(i)*sim.Millisecond, drift), cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.hosts = append(f.hosts, h)
	}
	for _, h := range f.hosts[:3] {
		f.boots = append(f.boots, h.Clock().Read(0))
	}
	for g := 0; g < 2; g++ {
		f.journals = append(f.journals, NewJournal())
		f.names = append(f.names, []string{"A", "B", "C"})
		f.view = append(f.view, 1)
		f.groups = append(f.groups, make([]*equivReplica, 3))
		for k := 0; k < 3; k++ {
			rt, err := NewRuntime(f.hosts[k], fmt.Sprint("g", g), &equivApp{}, f.boots)
			if err != nil {
				t.Fatal(err)
			}
			f.wire(g, k, rt)
		}
	}
	return f
}

// wire attaches device model, epoch coordinator, checkpoints and recording
// hooks to guest g's replica k.
func (f *equivFixture) wire(g, k int, rt *Runtime) {
	t := f.t
	rt.ex.everyBoundary, rt.ex.late = f.every, f.late
	tag, origin := fmt.Sprint("g", g), rt.Host().Name()
	spyOnExits(rt, func(guest.StepResult) { f.exits[rt]++ })
	rt.ex.vmm = ckptSpy{rt.ex.vmm, rt, func() { f.logf(origin, "%s ckpt %d %d", tag, rt.ex.instr, rt.virtLastExit) }}
	nd, err := NewNetDevice(rt, 3)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := NewEpochCoordinator(rt, rt.cfg.EpochInstr)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableCheckpoints(f.journals[g], rt.cfg.CheckpointInstr); err != nil {
		t.Fatal(err)
	}
	r := &equivReplica{rt: rt, nd: nd, ec: ec}
	f.groups[g][k] = r
	peers := func(fn func(p *equivReplica)) {
		for _, p := range f.groups[g] {
			if p != nil && p != r && !p.rt.Host().Failed() {
				f.arrive(origin, 180*sim.Microsecond, func() { fn(p) })
			}
		}
	}
	rt.OnSend = SendSinkFunc(func(a guest.IOAction) { f.logf(origin, "%s send %d %v", tag, a.Seq, a.Data) })
	rt.OnNetDeliver = func(seq uint64, v vtime.Virtual, real sim.Time) {
		f.logf(origin, "%s deliver %d %d %d", tag, seq, v, real)
	}
	// The beacon carries the epoch sample too, as the cluster's does. Muting
	// drops only its progress report: the mute forces a pacing pause, which
	// an epoch barrier held shut would pre-empt.
	rt.OnPace = PaceSinkFunc(func(v vtime.Virtual, epoch int64, s vtime.EpochSample) {
		f.logf(origin, "%s pace %d epoch %d %+v", tag, v, epoch, s)
		peers(func(p *equivReplica) {
			if !f.mute[p.rt] {
				p.rt.OnPeerVirt(origin, v)
			}
			p.ec.OnPeerSample(origin, epoch, s)
		})
	})
	nd.SendProposal = ProposalSinkFunc(func(view, seq uint64, v vtime.Virtual) {
		f.logf(origin, "%s propose %d %d", tag, seq, v)
		peers(func(p *equivReplica) { p.nd.HandlePeerProposal(origin, view, seq, v) })
	})
	nd.OnResolve = f.journals[g]
	ec.OnAdjust = f.journals[g].RecordEpochStar
}

// ckptSpy records every checkpoint its runtime captures, after the exit
// that took it: a checkpoint taken at another boundary shows in the records,
// not only in the journal's last one.
type ckptSpy struct {
	exitHandler
	rt  *Runtime
	see func()
}

func (s ckptSpy) exit(res guest.StepResult) {
	n := s.rt.stats.Checkpoints
	s.exitHandler.exit(res)
	if s.rt.stats.Checkpoints != n {
		s.see()
	}
}

// regroup installs guest g's current live membership everywhere.
func (f *equivFixture) regroup(g int) {
	f.view[g]++
	for _, r := range f.groups[g] {
		if r.rt.Host().Failed() {
			continue
		}
		r.rt.SetView(f.view[g], f.names[g])
	}
}

// ping sends packet seq to every live replica of guest g, a little skewed.
func (f *equivFixture) ping(g int, seq uint64) {
	for k, r := range f.groups[g] {
		if r.rt.Host().Failed() {
			continue
		}
		f.arrive("client", sim.Time(60+k*45)*sim.Microsecond, func() {
			r.nd.HandleInbound(seq, guest.Payload{Src: "client", Size: 200, Data: seq})
		})
	}
}

// run plays the script and returns everything observed.
func (f *equivFixture) run() map[string][]string {
	t := f.t
	load, err := NewRuntime(f.hosts[0], "load", &toggleApp{}, []sim.Time{0})
	if err != nil {
		t.Fatal(err)
	}
	load.ex.everyBoundary, load.ex.late = f.every, f.late
	load.OnSend = SendSinkFunc(func(guest.IOAction) {})
	for g := range f.groups {
		f.regroup(g)
		for _, r := range f.groups[g] {
			r.rt.Start()
		}
	}
	load.Start()

	// Ping load on both guests; g0's stream pauses over the replacement.
	seqs := []uint64{0, 0}
	for at := 2 * sim.Millisecond; at < 150*sim.Millisecond; at += 1700 * sim.Microsecond {
		at := at
		f.loop.At(at, "equiv:ping", func() {
			for g := range f.groups {
				if g == 0 && at > 82*sim.Millisecond && at < 100*sim.Millisecond {
					continue // quiesced for the crash and the replacement
				}
				seqs[g]++
				f.ping(g, seqs[g])
			}
		})
	}
	// A forced pacing pause: g1's replica on A hears no peer for a while,
	// keeps its stale maximum, runs MaxLead ahead of it and pauses; then the
	// reports come back.
	f.loop.At(30*sim.Millisecond, "equiv:mute", func() { f.mute[f.groups[1][0].rt] = true })
	f.loop.At(48*sim.Millisecond, "equiv:unmute", func() { f.mute[f.groups[1][0].rt] = false })
	// A mid-run Stop: g0's replica on C crashes with its machine.
	f.loop.At(90*sim.Millisecond, "equiv:crash", func() {
		dead := f.groups[0][2]
		f.logf("", "crash at instr %d virt %d", dead.rt.Instr(), dead.rt.VirtAtLastExit())
		f.hosts[2].Fail()
		dead.rt.Stop()
		f.names[0] = []string{"A", "B"}
		f.regroup(0)
		// g1 lives on: its replica on C stops too, without replacement.
		f.groups[1][2].rt.Stop()
		f.names[1] = []string{"A", "B"}
		f.regroup(1)
	})
	// The replacement replay onto the spare host.
	f.loop.At(96*sim.Millisecond, "equiv:replace", func() {
		a, b := f.groups[0][0], f.groups[0][1]
		donor, target := a, a.rt.Instr()
		if n := b.rt.Instr(); n > target {
			donor, target = b, n
		}
		rt, err := NewReplacementRuntime(f.hosts[3], "g0", &equivApp{}, f.boots, f.journals[0], target)
		if err != nil {
			t.Fatalf("replacement: %v", err)
		}
		f.logf("", "replaced at target %d restored %d replayed %d", target, rt.Stats().RestoredInstr, rt.Stats().ReplayedRecords)
		f.wire(0, 2, rt)
		f.groups[0][2].nd.PrimeResolved(seqs[0])
		f.names[0] = []string{"A", "B", "D"}
		f.regroup(0)
		f.groups[0][2].ec.RestoreAt(donor.ec)
		rt.Start()
	})
	if err := f.loop.RunUntil(150 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	for g := range f.groups {
		js := f.journals[g].Stats()
		f.logf("", "g%d journal ckpts %d instr %d virt %d records %d", g, js.Checkpoints, js.CheckpointInstr, js.CheckpointVirt, js.Records)
		for _, r := range f.groups[g] {
			f.logf(r.rt.Host().Name(), "g%d end instr %d virt %d slope %v adj %d rstats %+v gstats %+v digest %x nd %d/%d",
				g, r.rt.Instr(), r.rt.VirtAtLastExit(), r.rt.vclock.Slope(), r.ec.Adjustments(),
				r.rt.Stats(), r.rt.VM().Stats(), r.rt.VM().OutputDigest(), r.nd.Proposed(), r.nd.Resolved())
		}
	}
	f.logf("A", "load end instr %d gstats %+v", load.Instr(), load.VM().Stats())
	return f.log
}

func TestTicklessEqualsEveryBoundary(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		ticking := newEquivFixture(t, seed, true)
		want := ticking.run()
		tickless := newEquivFixture(t, seed, false)
		got := tickless.run()
		for _, machine := range []string{"", "A", "B", "C", "D"} {
			want, got := want[machine], got[machine]
			for i := 0; i < len(want) || i < len(got); i++ {
				if i >= len(want) || i >= len(got) || want[i] != got[i] {
					w, g := "<end>", "<end>"
					if i < len(want) {
						w = want[i]
					}
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("seed %d: machine %q record %d differs\n every-boundary: %s\n tickless:       %s", seed, machine, i, w, g)
				}
			}
		}
		// The script must have exercised what it claims to.
		var delivered, pauses, ckpts, replayed int
		for g := range tickless.groups {
			for _, r := range tickless.groups[g] {
				st := r.rt.Stats()
				delivered += st.NetDelivered
				pauses += st.Pauses
				ckpts += st.Checkpoints
				replayed += st.ReplayedRecords + int(st.RestoredInstr)
				if r.ec.Adjustments() == 0 {
					t.Fatalf("seed %d: a replica applied no epoch adjustment", seed)
				}
				if r.rt.VM().Stats().DiskInterrupts == 0 || r.rt.VM().Stats().TimerCallbacks == 0 {
					t.Fatalf("seed %d: no disk interrupt or app timer at a replica: %+v", seed, r.rt.VM().Stats())
				}
			}
		}
		if delivered < 200 || pauses == 0 || ckpts == 0 || replayed == 0 {
			t.Fatalf("seed %d: fixture went slack: delivered %d pauses %d checkpoints %d replayed %d",
				seed, delivered, pauses, ckpts, replayed)
		}
		// And tickless must have skipped: far fewer exits materialised.
		var exitsTicking, exitsTickless int
		for _, n := range ticking.exits {
			exitsTicking += n
		}
		for _, n := range tickless.exits {
			exitsTickless += n
		}
		if exitsTickless*2 > exitsTicking {
			t.Fatalf("seed %d: tickless materialised %d exits against %d", seed, exitsTickless, exitsTicking)
		}
	}
}

// TestTicklessSameNanosecondTies puts observers on the very nanosecond of a
// boundary of a quiet guest, whose boundaries fall at start + k·dur for
// good: a local event scheduled long before it (fires first: boundary not
// crossed), a local event scheduled after the previous boundary (crossed),
// a fabric arrival (crossed), a reader outside any event (parked ahead of
// the instant: not crossed; with the instant drained: crossed), and the
// pacing beacon, which on a drift-free host ties with a boundary at every
// tick.
func TestTicklessSameNanosecondTies(t *testing.T) {
	observe := func(every bool) []string {
		loop := sim.NewLoop()
		src := sim.NewSource(5)
		var log []string
		var outside []func()
		for _, drift := range []float64{0, 1.7e-5} {
			h, err := NewHost(fmt.Sprint("h", drift), loop, src.Stream(fmt.Sprint("h", drift)), sim.NewClock(0, drift), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewRuntime(h, "quiet", idleApp{}, []sim.Time{0})
			if err != nil {
				t.Fatal(err)
			}
			rt.ex.everyBoundary = every
			rt.OnPace = PaceSinkFunc(func(v vtime.Virtual, _ int64, _ vtime.EpochSample) {
				log = append(log, fmt.Sprintf("%d pace %v %d", loop.Now(), drift, v))
			})
			rt.Start()
			dur := rt.ex.fullDur
			see := func(what string) func() {
				return func() {
					log = append(log, fmt.Sprintf("%d %s %v instr %d virt %d", loop.Now(), what, drift, rt.Instr(), rt.VirtAtLastExit()))
				}
			}
			loop.At(1000*dur, "early", see("scheduled-long-before"))
			loop.At(1999*dur+1, "arm", func() { loop.At(2000*dur, "late", see("scheduled-after-previous-boundary")) })
			loop.AtArrivalTimer(3000*dur, "arrival", func(a, _ any, _ uint64) { a.(func())() }, see("arrival"), nil, 0, 1, 1)
			loop.At(3500*dur+17, "mid", see("mid-chunk"))
			if drift != 0 {
				continue
			}
			outside = append(outside, func() {
				// Parked ahead of boundary 500's instant, as at a
				// coordinator barrier; then with boundary 600's drained.
				if err := loop.RunBefore(500 * dur); err != nil {
					t.Fatal(err)
				}
				see("barrier")()
				if err := loop.RunUntil(600 * dur); err != nil {
					t.Fatal(err)
				}
				see("drained")()
			})
		}
		for _, fn := range outside {
			fn()
		}
		if err := loop.RunUntil(sim.Second); err != nil {
			t.Fatal(err)
		}
		return log
	}
	want, got := observe(true), observe(false)
	if len(want) != len(got) {
		t.Fatalf("%d observations every-boundary, %d tickless", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("observation %d differs\n every-boundary: %s\n tickless:       %s", i, want[i], got[i])
		}
	}
	// The rule itself, not only the agreement: at boundary k the early
	// observer still sees k-1 boundaries, the other two see k.
	every := DefaultConfig().ExitEvery
	for _, line := range got {
		var at, instr, virt int64
		var what string
		var drift float64
		if n, _ := fmt.Sscanf(line, "%d %s %v instr %d virt %d", &at, &what, &drift, &instr, &virt); n != 5 {
			continue
		}
		wantInstr := map[string]int64{
			"scheduled-long-before":             999 * every,
			"scheduled-after-previous-boundary": 2000 * every,
			"arrival":                           3000 * every,
			"mid-chunk":                         3500 * every,
			"barrier":                           499 * every,
			"drained":                           600 * every,
		}[what]
		if instr != wantInstr {
			t.Fatalf("%s: instr %d, want %d", line, instr, wantInstr)
		}
	}
}

// tickApp fires a timer at every PIT tick and reads the disk at every
// fourth; seen reports each firing.
type tickApp struct {
	n    int
	seen func()
}

func (a *tickApp) Boot(c guest.Ctx)                         { c.SetTimer(0, "t") }
func (a *tickApp) OnPacket(c guest.Ctx, p guest.Payload)    {}
func (a *tickApp) OnDiskDone(c guest.Ctx, d guest.DiskDone) {}
func (a *tickApp) OnTimer(c guest.Ctx, tag string) {
	a.seen()
	if a.n++; a.n%4 == 0 {
		c.DiskRead("blk", 8<<10)
	}
	c.SetTimer(0, "t")
}

// TestTicklessBarrierArmedCoResident covers the order of exits that share a
// nanosecond: two guests on one drift-free host, the second started at a
// coordinator barrier that falls on the first's boundary, so from then on
// all boundaries coincide and the late-comer's events — scheduled ahead of
// that instant's — go first. Both take real exits at the same PIT ticks and
// queue for the same disk there, so the order shows. It turns over when the
// late-comer's own disk read ends a chunk off the boundary: the successor
// is scheduled then, behind the resident's event for the boundary both
// reach next. A third guest joins at a later barrier on the same grid and
// keeps toggling busy: where its bursts meet a tick guest's disk read the
// CPU is shared two ways and the busy pair is re-timed, which moves the
// reader a nanosecond off the grid for good — so the ticks that share a
// nanosecond are the ones before it joins.
func TestTicklessBarrierArmedCoResident(t *testing.T) {
	observe := func(every bool) []string {
		loop := sim.NewLoop()
		h, err := NewHost("h", loop, sim.NewSource(3).Stream("h"), sim.NewClock(0, 0), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		start := func(id string, app guest.App) {
			rt, err := NewRuntime(h, id, app, []sim.Time{h.Clock().Read(loop.Now())})
			if err != nil {
				t.Fatal(err)
			}
			rt.ex.everyBoundary = every
			if a, ok := app.(*tickApp); ok {
				a.seen = func() {
					log = append(log, fmt.Sprintf("%08d %s tick instr %d disk %d busy %d", loop.Now(), id, rt.ex.instr, h.DiskOps(), h.BusyCount()))
				}
			}
			rt.Start()
		}
		startAt := func(at sim.Time, id string, app guest.App) {
			if err := loop.RunBefore(at); err != nil { // parks ahead of the instant, as a barrier does
				t.Fatal(err)
			}
			start(id, app)
		}
		start("first", &tickApp{})
		startAt(5*sim.Millisecond, "late", &tickApp{})
		startAt(28*sim.Millisecond, "busy", &toggleApp{})
		if err := loop.RunUntil(80 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return log
	}
	want, got := observe(true), observe(false)
	lateFirst, firstFirst := 0, 0
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			t.Fatalf("record %d differs\n every-boundary: %s\n tickless:       %v", i, want[i], got[i:min(i+1, len(got))])
		}
		if i > 0 && want[i][:8] == want[i-1][:8] {
			if want[i-1][9:13] == "late" {
				lateFirst++
			} else {
				firstFirst++
			}
		}
	}
	// Both orders must have occurred: the late-comer leads until its first
	// disk read sends it to the back.
	if len(got) != len(want) || lateFirst == 0 || firstFirst == 0 {
		t.Fatalf("%d records every-boundary, %d tickless; ticks sharing a nanosecond: %d late-comer first, %d resident first",
			len(want), len(got), lateFirst, firstFirst)
	}
}

// idleApp never does anything.
type idleApp struct{}

func (idleApp) Boot(guest.Ctx)                       {}
func (idleApp) OnPacket(guest.Ctx, guest.Payload)    {}
func (idleApp) OnDiskDone(guest.Ctx, guest.DiskDone) {}
func (idleApp) OnTimer(guest.Ctx, string)            {}

// TestIdleReplicaFiresFewChunkEvents asserts the mechanism: an idle replica
// of a paced three-replica guest materialises well under 600 exits per
// simulated second — every boundary would be 4 000.
func TestIdleReplicaFiresFewChunkEvents(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(9)
	var rts []*Runtime
	exits := make([]int, 3)
	for i, name := range []string{"A", "B", "C"} {
		h, err := NewHost(name, loop, src.Stream(name), sim.NewClock(0, float64(i-1)*1.5e-5), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(h, "idle", idleApp{}, []sim.Time{0, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		spyOnExits(rt, func(guest.StepResult) { exits[i]++ })
		rts = append(rts, rt)
	}
	for i, rt := range rts {
		rt.OnPace = PaceSinkFunc(func(v vtime.Virtual, _ int64, _ vtime.EpochSample) {
			for j, p := range rts {
				if j != i {
					loop.After(150*sim.Microsecond, "pace", func() { p.OnPeerVirt(rts[i].Host().Name(), v) })
				}
			}
		})
		rt.Start()
	}
	before := loop.Fired()
	if err := loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	for i, n := range exits {
		if n >= 600 || n == 0 {
			t.Fatalf("replica %d materialised %d exits in one simulated second, want 0 < n < 600", i, n)
		}
		if got, want := rts[i].Instr(), int64(float64(DefaultConfig().BaseRate)*(1+float64(i-1)*1.5e-5)); got > want || got < want-DefaultConfig().ExitEvery {
			t.Fatalf("replica %d at instr %d after one second, want the last boundary before %d", i, got, want)
		}
	}
	// 3 × (500 beacons + 1000 reports) besides the chunk events.
	if fired := loop.Fired() - before; fired > 4500+3*600 {
		t.Fatalf("%d events for three idle replicas over one simulated second", fired)
	}
}
