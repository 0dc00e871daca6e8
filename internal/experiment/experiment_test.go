package experiment

import (
	"strconv"
	"strings"
	"testing"

	"stopwatch/internal/sim"
)

func TestFig1ShapeHalf(t *testing.T) {
	r, err := RunFig1(DefaultFig1Config())
	if err != nil {
		t.Fatal(err)
	}
	// CDFs monotone and ordered sensibly at small x: victim (slower rate)
	// is below baseline.
	for _, p := range r.Curve[1:] {
		if p.Victim > p.Baseline {
			t.Fatalf("victim CDF above baseline at %v", p.X)
		}
	}
	// The two median distributions are much closer than the raw pair
	// (Theorem 3): KS contraction by at least 2x here.
	if r.KSMedian*2 > r.KSRaw {
		t.Fatalf("median contraction too weak: raw=%v med=%v", r.KSRaw, r.KSMedian)
	}
	// Detection cost: StopWatch multiplies the observations needed at every
	// confidence, and the curves increase with confidence.
	for i := range r.Confidences {
		if r.ObsWith[i] < 4*r.ObsWithout[i] {
			t.Fatalf("conf %v: with=%v without=%v — gap too small",
				r.Confidences[i], r.ObsWith[i], r.ObsWithout[i])
		}
		if i > 0 && (r.ObsWith[i] < r.ObsWith[i-1] || r.ObsWithout[i] < r.ObsWithout[i-1]) {
			t.Fatal("detection curves not monotone in confidence")
		}
	}
	// LRT estimator lands on the paper's Fig-1(b) magnitude: ~70 obs at
	// 0.99 for the median case.
	last := len(r.Confidences) - 1
	if r.ObsWithLRT[last] < 40 || r.ObsWithLRT[last] > 110 {
		t.Fatalf("LRT w/ SW at 0.99 = %v, want ~70", r.ObsWithLRT[last])
	}
	if !strings.Contains(r.Render(), "Fig 1(a)") {
		t.Fatal("render missing header")
	}
}

func TestFig1ShapeNear(t *testing.T) {
	cfg := DefaultFig1Config()
	cfg.LambdaPrime = 10.0 / 11.0
	r, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 1(c): with λ' close to λ both curves shift up dramatically
	// compared to λ'=1/2.
	half, err := RunFig1(DefaultFig1Config())
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Confidences) - 1
	if r.ObsWith[last] < 10*half.ObsWith[last] {
		t.Fatalf("near-λ case should need far more observations: %v vs %v",
			r.ObsWith[last], half.ObsWith[last])
	}
	// Paper's Fig-1(c) magnitude: hundreds to thousands at 0.99.
	if r.ObsWithLRT[last] < 800 {
		t.Fatalf("LRT w/ SW at 0.99 = %v, want thousands", r.ObsWithLRT[last])
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := RunFig8(DefaultFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points: %d", len(r.Points))
	}
	prevNoise := 0.0
	for i, p := range r.Points {
		// The paper's scaling claim: StopWatch's delay is FLAT in the
		// attacker's required confidence (it is pinned by Δn), while the
		// matched uniform-noise bound GROWS.
		if p.NoiseBound < prevNoise {
			t.Fatalf("noise bound not growing with confidence: %+v", r.Points)
		}
		prevNoise = p.NoiseBound
		if p.EDelayNoise <= 0 || p.EDelayStopWatch <= 0 {
			t.Fatal("nonpositive delays")
		}
		if p.EDelayStopWatch != r.Points[0].EDelayStopWatch {
			t.Fatal("StopWatch delay should be flat in confidence")
		}
		// Attacker effort grows with confidence.
		if i > 0 && p.ObsNeeded < r.Points[i-1].ObsNeeded {
			t.Fatalf("observations not monotone: %+v", r.Points)
		}
	}
	// The StopWatch victim/no-victim delays are nearly equal (that's how
	// the defense hides the victim), per the appendix's observation.
	top := r.Points[len(r.Points)-1]
	if top.EDelayStopWatchVictim-top.EDelayStopWatch > 0.5 {
		t.Fatalf("StopWatch victim delay %v too far from %v",
			top.EDelayStopWatchVictim, top.EDelayStopWatch)
	}
	// Noise bound at 0.99 is several times the 0.70 bound (steep growth,
	// vs StopWatch's flat line). NOTE (documented in EXPERIMENTS.md): the
	// paper's absolute crossover — noise delay exceeding StopWatch's —
	// does not reproduce under our χ²-power formalization, because the
	// coverage-0.9999 Δn dominates all delays at these λ values.
	if top.NoiseBound < 3*r.Points[0].NoiseBound {
		t.Fatalf("noise growth too shallow: %+v", r.Points)
	}
	if !strings.Contains(r.Render(), "Fig 8") {
		t.Fatal("render missing header")
	}
}

func fastFig4() Fig4Config {
	cfg := DefaultFig4Config()
	cfg.Duration = 8 * sim.Second
	return cfg
}

func TestFig4SideChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := RunFig4(fastFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SWGapsVictim) < 100 || len(r.BaseGapsVictim) < 100 {
		t.Fatalf("too few observations: sw=%d base=%d", len(r.SWGapsVictim), len(r.BaseGapsVictim))
	}
	// The defense: the victim's fingerprint (KS shift) must be much weaker
	// under StopWatch than under the baseline.
	if r.KSStopWatch*1.5 > r.KSBaseline {
		t.Fatalf("KS suppression too weak: SW=%v base=%v", r.KSStopWatch, r.KSBaseline)
	}
	// Observations needed: StopWatch must cost the attacker several times
	// more at every confidence (paper: an order of magnitude in this
	// scenario; the full 30s run reaches ~10x, this trimmed run a bit less).
	for i := range r.Confidences {
		if r.ObsWith[i] < 2*r.ObsWithout[i] {
			t.Fatalf("conf %v: with=%v without=%v", r.Confidences[i], r.ObsWith[i], r.ObsWithout[i])
		}
	}
	// Synchrony violations are tolerated only at a trace level (the victim's
	// TCP bursts produce rare Dom0 delay tails beyond Δn).
	if r.Divergences > 5 {
		t.Fatalf("divergences during run: %d", r.Divergences)
	}
	if !strings.Contains(r.Render(), "Fig 4(a)") {
		t.Fatal("render missing header")
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultFig5Config()
	cfg.SizesKB = []int{10, 100, 1000}
	cfg.Runs = 2
	r, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		// StopWatch always costs more than baseline.
		if p.HTTPStopWatch <= p.HTTPBaseline {
			t.Fatalf("%dKB: HTTP SW %v <= base %v", p.SizeKB, p.HTTPStopWatch, p.HTTPBaseline)
		}
		if p.UDPStopWatch <= p.UDPBaseline {
			t.Fatalf("%dKB: UDP SW %v <= base %v", p.SizeKB, p.UDPStopWatch, p.UDPBaseline)
		}
		// The paper's key claims: UDP over StopWatch is far cheaper than
		// HTTP over StopWatch (the inbound-packet tax), and UDP-SW stays
		// within a small factor of UDP baseline for ≥100KB.
		if p.SizeKB >= 100 {
			if p.UDPStopWatch >= p.HTTPStopWatch {
				t.Fatalf("%dKB: UDP SW %v should beat HTTP SW %v", p.SizeKB, p.UDPStopWatch, p.HTTPStopWatch)
			}
			if p.UDPRatio > 2.0 {
				t.Fatalf("%dKB: UDP ratio %v too high", p.SizeKB, p.UDPRatio)
			}
		}
	}
	// HTTP overhead sits in the paper's regime (≤2.8x for ≥100KB; small
	// files pay at least as much).
	for _, p := range r.Points {
		if p.SizeKB >= 100 && (p.HTTPRatio < 1.3 || p.HTTPRatio > 3.5) {
			t.Fatalf("%dKB: HTTP ratio %v outside paper regime", p.SizeKB, p.HTTPRatio)
		}
	}
	if !strings.Contains(r.Render(), "Fig 5") {
		t.Fatal("render missing header")
	}
	// Single cold downloads hold lockstep, and the table says so.
	if r.Divergences != 0 || !strings.Contains(r.Render(), "divergences over the StopWatch runs: 0\n") {
		t.Fatalf("divergences = %d, render:\n%s", r.Divergences, r.Render())
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultFig6Config()
	cfg.Rates = []float64{25, 100, 400}
	cfg.LoadDuration = 2 * sim.Second
	cfg.DrainDuration = 2 * sim.Second
	r, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.LatencyStopWatch <= p.LatencyBaseline {
			t.Fatalf("rate %v: SW %v <= base %v", p.Rate, p.LatencyStopWatch, p.LatencyBaseline)
		}
		// Paper: under 2.7x at every load (ours may differ somewhat; bound
		// generously but meaningfully).
		if p.Ratio > 6 {
			t.Fatalf("rate %v: ratio %v implausible", p.Rate, p.Ratio)
		}
		if p.OpsCompleted == 0 {
			t.Fatalf("rate %v: no ops", p.Rate)
		}
	}
	// Fig 6(b): client→server packets per op decrease with offered load
	// (ACK coalescing + piggybacking).
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.ClientToServerPerOp >= first.ClientToServerPerOp {
		t.Fatalf("c→s per op should fall with load: %v → %v",
			first.ClientToServerPerOp, last.ClientToServerPerOp)
	}
	if !strings.Contains(r.Render(), "Fig 6(a)") {
		t.Fatal("render missing header")
	}
	// Fig 6's StopWatch runs diverge today (ROADMAP item 2, F1: simultaneous
	// connection set-ups); whatever the count, the table says it.
	if !strings.Contains(r.Render(), "divergences over the StopWatch runs: "+strconv.Itoa(r.Divergences)+"\n") {
		t.Fatalf("render does not report %d divergences:\n%s", r.Divergences, r.Render())
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultFig7Config()
	// Trim to three profiles for test speed; the bench runs all five.
	cfg.Profiles = cfg.Profiles[:3]
	r, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type overhead struct {
		ints int64
		ms   float64
	}
	var ovs []overhead
	for _, p := range r.Points {
		if p.StopWatch <= p.Baseline {
			t.Fatalf("%s: SW %v <= base %v", p.Name, p.StopWatch, p.Baseline)
		}
		// Paper's bound: ≤2.3x; allow a little slack for our simulator.
		if p.Ratio > 3.0 {
			t.Fatalf("%s: ratio %v above paper regime", p.Name, p.Ratio)
		}
		// Baselines land within 40% of the paper's measured values
		// (calibration sanity).
		if p.Baseline < p.PaperBaseline*0.6 || p.Baseline > p.PaperBaseline*1.4 {
			t.Fatalf("%s: baseline %v vs paper %v — calibration broken", p.Name, p.Baseline, p.PaperBaseline)
		}
		ovs = append(ovs, overhead{p.DiskInterrupts, p.StopWatch - p.Baseline})
	}
	// Fig 7(b): absolute overhead increases with disk interrupts.
	for i := range ovs {
		for j := range ovs {
			if ovs[i].ints > ovs[j].ints*2 && ovs[i].ms <= ovs[j].ms {
				t.Fatalf("overhead not correlated with disk interrupts: %+v", ovs)
			}
		}
	}
	if !strings.Contains(r.Render(), "Fig 7(a)") {
		t.Fatal("render missing header")
	}
	if r.Divergences != 0 {
		t.Fatalf("PARSEC runs diverged %d times", r.Divergences)
	}
}

func TestCalibShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultCalibConfig()
	cfg.DeltaNsMS = []float64{2, 8, 16}
	cfg.Duration = 5 * sim.Second
	r, err := RunCalib(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Divergences must vanish as Δn grows; latency must grow with Δn.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.Divergences > first.Divergences {
		t.Fatalf("divergences should not grow with Δn: %+v", r.Points)
	}
	if last.Divergences != 0 {
		t.Fatalf("Δn=16ms still diverging: %d", last.Divergences)
	}
	if last.MeanLatencyMS <= first.MeanLatencyMS {
		t.Fatalf("latency should grow with Δn: %+v", r.Points)
	}
	if !strings.Contains(r.Render(), "calibration") {
		t.Fatal("render missing header")
	}
}

func TestPlacementTable(t *testing.T) {
	r, err := RunPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(placementNs) {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	// Θ(cn): the gain grows linearly in n at c=(n-1)/2.
	firstGain := r.Rows[0].UtilizationGain
	lastGain := r.Rows[len(r.Rows)-1].UtilizationGain
	if lastGain <= firstGain {
		t.Fatalf("utilization gain should grow with n: %v → %v", firstGain, lastGain)
	}
	if !strings.Contains(r.Render(), "Sec VIII") {
		t.Fatal("render missing header")
	}
}

func TestLeaderAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// The two KS statistics sit ~0.003 apart under a sampling floor of
	// ~1.36·sqrt(2/n) ≈ 0.019 at the shipped duration's n gaps, so at one
	// seed the comparison below is a biased coin that any change to fabric
	// traffic re-tosses (18 of 26 seeds before PR 16, 15 of 26 after). Run
	// twice the shipped duration and ask for a majority over consecutive
	// seeds from the shipped one (7 of 8 there, before and after).
	cfg := DefaultLeaderConfig()
	cfg.Duration *= 2
	const seeds = 5
	var r *LeaderResult
	wins := 0
	for range seeds {
		var err error
		if r, err = RunLeader(cfg); err != nil {
			t.Fatal(err)
		}
		// Leader-dictated timing must leak more than the median.
		if r.KSLeader > r.KSMedian {
			wins++
		}
		cfg.Seed++
	}
	if 2*wins <= seeds {
		t.Fatalf("leader KS exceeded median KS on %d of %d seeds", wins, seeds)
	}
	if !strings.Contains(r.Render(), "median") {
		t.Fatal("render missing header")
	}
}

func TestCollabAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultCollabConfig()
	cfg.Duration = 8 * sim.Second
	r, err := RunCollab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points: %d", len(r.Points))
	}
	if !strings.Contains(r.Render(), "Sec IX") {
		t.Fatal("render missing header")
	}
}
