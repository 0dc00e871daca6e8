package apps

import (
	"errors"
	"testing"

	"stopwatch/internal/guest"
	"stopwatch/internal/netsim"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
)

// baselineHarness runs one guest app under a baseline runtime attached to a
// fabric at "svc:g", plus a transport client.
type baselineHarness struct {
	loop   *sim.Loop
	net    *netsim.Network
	rt     *vmm.BaselineRuntime
	client *transport.Client
}

func newBaselineHarness(t testing.TB, app guest.App) *baselineHarness {
	t.Helper()
	loop := sim.NewLoop()
	src := sim.NewSource(7)
	net, err := netsim.New(loop, src.Stream("net"), netsim.LinkConfig{Latency: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	host, err := vmm.NewHost("h", loop, src.Stream("host"), sim.NewClock(0, 0), vmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := vmm.NewBaselineRuntime(host, "g", app)
	if err != nil {
		t.Fatal(err)
	}
	svc := netsim.Addr("svc:g")
	rt.OnSend = vmm.SendSinkFunc(func(a guest.IOAction) {
		net.Send(&netsim.Packet{Src: svc, Dst: a.Dst, Size: a.Size, Kind: "data", Payload: a.Data})
	})
	if err := net.Attach(&netsim.FuncNode{Addr: svc, Fn: func(p *netsim.Packet) {
		rt.HandleInbound(guest.Payload{Src: p.Src, Size: p.Size, Data: p.Payload})
	}}); err != nil {
		t.Fatal(err)
	}
	cl, err := transport.NewClient(net, loop, "client")
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return &baselineHarness{loop: loop, net: net, rt: rt, client: cl}
}

func TestFileServerValidation(t *testing.T) {
	if _, err := NewFileServer(FileServerConfig{Mode: 0}); !errors.Is(err, ErrApp) {
		t.Fatal("bad mode should fail")
	}
}

func TestFileServerServesSequentialChunks(t *testing.T) {
	fs, err := NewFileServer(DefaultFileServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, fs)
	dl := NewDownloader(h.client)
	var lat []sim.Time
	// 200KB = 4 chunks of 64KB read one at a time.
	if err := dl.Fetch("svc:g", ModeTCP, 200<<10, func(l sim.Time) { lat = append(lat, l) }); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(lat) != 1 {
		t.Fatalf("downloads: %d", len(lat))
	}
	if fs.Served() != 1 {
		t.Fatalf("served = %d", fs.Served())
	}
	if got := h.rt.VM().Stats().DiskRequests; got != 4 {
		t.Fatalf("disk requests = %d, want 4 sequential chunks", got)
	}
	if len(dl.Latencies()) != 1 {
		t.Fatal("downloader did not record latency")
	}
}

func TestFileServerUDPMode(t *testing.T) {
	cfg := DefaultFileServerConfig()
	cfg.Mode = ModeUDP
	fs, err := NewFileServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, fs)
	dl := NewDownloader(h.client)
	done := false
	if err := dl.Fetch("svc:g", ModeUDP, 50<<10, func(sim.Time) { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("udp download incomplete")
	}
	if h.client.PacketsSent() != 1 {
		t.Fatalf("udp client sent %d packets, want 1", h.client.PacketsSent())
	}
}

func TestDownloaderBadMode(t *testing.T) {
	fs, err := NewFileServer(DefaultFileServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, fs)
	dl := NewDownloader(h.client)
	if err := dl.Fetch("svc:g", 0, 1024, nil); !errors.Is(err, ErrApp) {
		t.Fatal("bad mode should fail")
	}
}

func TestNFSServerOpBehaviour(t *testing.T) {
	srv, err := NewNFSServer(16)
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, srv)
	conn := h.client.Connect("svc:g", nil)
	completed := map[NFSOp]int{}
	for _, op := range []NFSOp{OpGetattr, OpLookup, OpLookup, OpLookup, OpLookup, OpRead, OpWrite, OpSetattr, OpCreate} {
		op := op
		if err := h.client.Request(conn, NFSRequest{Op: op, Bytes: 8192}, func(transport.Response) {
			completed[op]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.loop.RunUntil(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if srv.Served() != 9 {
		t.Fatalf("served %d/9 ops", srv.Served())
	}
	for _, op := range []NFSOp{OpGetattr, OpRead, OpWrite, OpSetattr, OpCreate} {
		if completed[op] == 0 {
			t.Fatalf("op %v never completed", op)
		}
	}
	// Disk behaviour: read+write+setattr+create = 4, plus exactly one
	// lookup in four missing the name cache = 5 disk requests total.
	if got := h.rt.VM().Stats().DiskRequests; got != 5 {
		t.Fatalf("disk requests = %d, want 5", got)
	}
}

func TestNFSOpString(t *testing.T) {
	names := map[NFSOp]string{
		OpSetattr: "setattr", OpLookup: "lookup", OpWrite: "write",
		OpGetattr: "getattr", OpRead: "read", OpCreate: "create", NFSOp(0): "?",
	}
	for op, want := range names {
		if op.String() != want {
			t.Fatalf("%d.String() = %q", op, op.String())
		}
	}
}

func TestPaperMixWeights(t *testing.T) {
	mix := PaperMix()
	var sum float64
	for _, m := range mix {
		sum += m.Weight
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("mix weights sum to %v, want ~100", sum)
	}
	if len(mix) != 6 {
		t.Fatalf("mix entries: %d", len(mix))
	}
}

func TestNFSLoadGenValidation(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(1)
	net, err := netsim.New(loop, src.Stream("n"), netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := transport.NewClient(net, loop, "c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNFSLoadGen(nil, src.Stream("g"), cl, "svc:x", PaperMix(), NFSLoadGenConfig{Processes: 1, RatePerSec: 1}); !errors.Is(err, ErrApp) {
		t.Fatal("nil loop should fail")
	}
	if _, err := NewNFSLoadGen(loop, src.Stream("g"), cl, "svc:x", PaperMix(), NFSLoadGenConfig{Processes: 0, RatePerSec: 1}); !errors.Is(err, ErrApp) {
		t.Fatal("0 processes should fail")
	}
	if _, err := NewNFSLoadGen(loop, src.Stream("g"), cl, "svc:x", nil, NFSLoadGenConfig{Processes: 1, RatePerSec: 1}); !errors.Is(err, ErrApp) {
		t.Fatal("empty mix should fail")
	}
}

func TestParsecAppChain(t *testing.T) {
	prof := ParsecProfile{Name: "t", ComputeBranches: 5_000_000, DiskReads: 3, BytesPerRead: 4096}
	app, err := NewParsecApp(prof, "collector")
	if err != nil {
		t.Fatal(err)
	}
	h := newBaselineHarness(t, app)
	got := 0
	if err := h.net.Attach(&netsim.FuncNode{Addr: "collector", Fn: func(p *netsim.Packet) {
		got++
		if p.Payload != "done:t" {
			t.Errorf("payload %v", p.Payload)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("collector packets: %d", got)
	}
	if !app.Done() {
		t.Fatal("app not done")
	}
	if ints := h.rt.VM().Stats().DiskInterrupts; ints != 3 {
		t.Fatalf("disk interrupts = %d, want 3", ints)
	}
}

func TestParsecValidation(t *testing.T) {
	if _, err := NewParsecApp(ParsecProfile{DiskReads: 0, BytesPerRead: 1}, "c"); !errors.Is(err, ErrApp) {
		t.Fatal("0 reads should fail")
	}
	if _, err := NewParsecApp(ParsecProfile{DiskReads: 1, BytesPerRead: 1}, ""); !errors.Is(err, ErrApp) {
		t.Fatal("no collector should fail")
	}
}

func TestPaperParsecProfilesCalibration(t *testing.T) {
	profs := PaperParsecProfiles()
	if len(profs) != 5 {
		t.Fatalf("profiles: %d", len(profs))
	}
	// Paper disk interrupt counts (Fig 7b).
	wantInts := map[string]int{"ferret": 31, "blackscholes": 38, "canneal": 183, "dedup": 293, "streamcluster": 27}
	for _, p := range profs {
		if p.DiskReads != wantInts[p.Name] {
			t.Fatalf("%s: %d reads, want %d", p.Name, p.DiskReads, wantInts[p.Name])
		}
		// Calibration identity: compute ≈ (baseline − reads×1.7ms)×1e6.
		wantCompute := (p.BaselinePaperMS - float64(p.DiskReads)*1.7) * 1e6
		diff := float64(p.ComputeBranches) - wantCompute
		if diff < -1e6 || diff > 1e6 {
			t.Fatalf("%s: compute %d vs calibration %v", p.Name, p.ComputeBranches, wantCompute)
		}
	}
}

func TestProbeAppRecordsDeliveries(t *testing.T) {
	probe := NewProbeApp()
	h := newBaselineHarness(t, probe)
	for i := 0; i < 5; i++ {
		at := sim.Time(i+1) * 10 * sim.Millisecond
		h.loop.At(at, "p", func() {
			h.net.Send(&netsim.Packet{Src: "x", Dst: "svc:g", Size: 64, Kind: "probe"})
		})
	}
	if err := h.loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	times := probe.DeliveryTimes()
	if len(times) != 5 {
		t.Fatalf("deliveries: %d", len(times))
	}
	gaps := probe.InterDeliveryGaps()
	if len(gaps) != 4 {
		t.Fatalf("gaps: %d", len(gaps))
	}
	for _, g := range gaps {
		// ~10ms spacing ± delivery jitter.
		if g < 5e6 || g > 15e6 {
			t.Fatalf("gap %v ns implausible", g)
		}
	}
	if probe.InterDeliveryGaps() == nil {
		t.Fatal("gaps should be non-nil with 5 deliveries")
	}
	empty := NewProbeApp()
	if empty.InterDeliveryGaps() != nil {
		t.Fatal("no deliveries should give nil gaps")
	}
}

func TestBeaconAppGeneratesLoad(t *testing.T) {
	b := NewBeaconApp(vtime.Virtual(10 * sim.Millisecond))
	b.Sink = "sink"
	h := newBaselineHarness(t, b)
	sunk := 0
	if err := h.net.Attach(&netsim.FuncNode{Addr: "sink", Fn: func(*netsim.Packet) { sunk++ }}); err != nil {
		t.Fatal(err)
	}
	if err := h.loop.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	// ~100 bursts/second at a 10ms period (compute+disk slow it slightly).
	if b.Bursts() < 50 || b.Bursts() > 110 {
		t.Fatalf("bursts in 1s: %d", b.Bursts())
	}
	if sunk == 0 {
		t.Fatal("beacon never reached sink")
	}
	if h.rt.VM().Stats().DiskRequests == 0 {
		t.Fatal("beacon generated no disk load")
	}
}

func TestProbeSourceConstantAndPoisson(t *testing.T) {
	loop := sim.NewLoop()
	src := sim.NewSource(5)
	net, err := netsim.New(loop, src.Stream("n"), netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []sim.Time
	if err := net.Attach(&netsim.FuncNode{Addr: "dst", Fn: func(*netsim.Packet) {
		arrivals = append(arrivals, loop.Now())
	}}); err != nil {
		t.Fatal(err)
	}
	ps := NewProbeSource(net, loop, src.Stream("p"), "src", "dst", 5*sim.Millisecond)
	ps.Constant = true
	var sends []sim.Time
	ps.OnSend = func(seq uint64, at sim.Time) { sends = append(sends, at) }
	ps.Start(100 * sim.Millisecond)
	if err := loop.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(sends) < 18 || len(sends) > 21 {
		t.Fatalf("constant-rate sends in 100ms at 5ms: %d", len(sends))
	}
	for i := 1; i < len(sends); i++ {
		if sends[i]-sends[i-1] != 5*sim.Millisecond {
			t.Fatalf("constant gap violated: %v", sends[i]-sends[i-1])
		}
	}
	if ps.Sent() != uint64(len(sends)) {
		t.Fatal("sent counter mismatch")
	}
}

// TestTwoClientsOneFileServer: every transport client numbers its
// connections and requests from 1, so two clients of one server use the same
// ids at the same time. Both downloads complete, each with its own size, over
// TCP and over UDP.
func TestTwoClientsOneFileServer(t *testing.T) {
	for _, mode := range []FileServerMode{ModeTCP, ModeUDP} {
		cfg := DefaultFileServerConfig()
		cfg.Mode = mode
		fs, err := NewFileServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := newBaselineHarness(t, fs)
		second, err := transport.NewClient(h.net, h.loop, "client2")
		if err != nil {
			t.Fatal(err)
		}
		got := map[netsim.Addr]int{}
		for i, cl := range []*transport.Client{h.client, second} {
			var conn uint64
			if mode == ModeTCP {
				conn = cl.Connect("svc:g", nil)
			} else {
				conn = cl.OpenUDP("svc:g")
			}
			bytes := (i + 1) * 100 << 10
			if err := cl.Request(conn, GetFile{Bytes: bytes}, func(r transport.Response) { got[cl.Addr()] = r.Segments }); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.loop.RunUntil(60 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if got["client"] != transport.SegCount(100<<10) || got["client2"] != transport.SegCount(200<<10) {
			t.Errorf("mode %d: segments of the completed downloads %v, want 100 KiB to client and 200 KiB to client2", mode, got)
		}
	}
}
