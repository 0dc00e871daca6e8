package vtime

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"stopwatch/internal/sim"
)

func mustClock(t *testing.T, cfg Config) *Clock {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func defaultCfg() Config {
	return Config{BootTimes: []sim.Time{100, 200, 300}}
}

func TestNewUsesMedianBootTime(t *testing.T) {
	c := mustClock(t, defaultCfg())
	if c.Start() != 200 {
		t.Fatalf("start = %v, want median 200", c.Start())
	}
	cfg := defaultCfg()
	cfg.BootTimes = []sim.Time{900, 100, 500}
	c = mustClock(t, cfg)
	if c.Start() != 500 {
		t.Fatalf("start = %v, want median 500", c.Start())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrBadClock) {
		t.Errorf("no boot times: want ErrBadClock, got %v", err)
	}
}

func TestEqn1(t *testing.T) {
	c := mustClock(t, defaultCfg())
	if got := c.At(0); got != 200 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(1000); got != 1200 {
		t.Fatalf("At(1000) = %v, want start+slope·instr", got)
	}
}

func TestInstrForInvertsAt(t *testing.T) {
	c := mustClock(t, defaultCfg())
	if err := c.Restore(c.Start(), 2.5, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range []Virtual{200, 201, 500, 12345} {
		i := c.InstrFor(v)
		if c.At(i) < v {
			t.Fatalf("At(InstrFor(%v)) = %v < %v", v, c.At(i), v)
		}
		if i > 0 && c.At(i-1) >= v {
			t.Fatalf("InstrFor(%v) = %d not minimal", v, i)
		}
	}
	if c.InstrFor(0) != 0 {
		t.Fatal("InstrFor before start should be epoch base")
	}
}

func TestAdjustEpochMedianSelection(t *testing.T) {
	c := mustClock(t, defaultCfg())
	// Three replicas report (D, R). Median R is 10_000 (replica b), so its
	// D (2_000) must be used: slope = (R* − virt(I) + D*) / I.
	const epoch = 1000
	virtEnd := c.At(epoch) // 200 + 1000 = 1200
	samples := []EpochSample{
		{D: 9000, R: 5_000},
		{D: 2000, R: 10_000},
		{D: 1000, R: 50_000},
	}
	star, err := c.AdjustEpoch(epoch, samples)
	if err != nil {
		t.Fatal(err)
	}
	if want := (EpochSample{D: 2000, R: 10_000}); star != want {
		t.Fatalf("star = %+v, want %+v", star, want)
	}
	wantSlope := (10_000.0 - float64(virtEnd) + 2000.0) / epoch // 10.8 → clamped to 4
	if wantSlope > 4 {
		wantSlope = 4
	}
	if math.Abs(c.Slope()-wantSlope) > 1e-12 {
		t.Fatalf("slope = %v, want %v", c.Slope(), wantSlope)
	}
	if c.Start() != virtEnd {
		t.Fatalf("start = %v, want %v", c.Start(), virtEnd)
	}
	// Virtual time is continuous across the epoch boundary.
	if c.At(epoch) != virtEnd {
		t.Fatalf("At(epoch) = %v, want continuity at %v", c.At(epoch), virtEnd)
	}
}

func TestAdjustEpochClamping(t *testing.T) {
	c := mustClock(t, defaultCfg())
	// Huge R → slope would explode; must clamp to hi.
	if _, err := c.AdjustEpoch(100, []EpochSample{{D: 1, R: sim.Time(1e12)}}); err != nil {
		t.Fatal(err)
	}
	if c.Slope() != 4.0 {
		t.Fatalf("slope = %v, want clamp at 4.0", c.Slope())
	}
	// R far in the past → negative raw slope; must clamp to lo (positive).
	c2 := mustClock(t, defaultCfg())
	if _, err := c2.AdjustEpoch(100, []EpochSample{{D: 1, R: 0}}); err != nil {
		t.Fatal(err)
	}
	if c2.Slope() != 0.25 {
		t.Fatalf("slope = %v, want clamp at 0.25", c2.Slope())
	}
}

func TestAdjustEpochErrors(t *testing.T) {
	c := mustClock(t, defaultCfg())
	if _, err := c.AdjustEpoch(0, []EpochSample{{D: 1, R: 1}}); !errors.Is(err, ErrBadClock) {
		t.Fatal("epoch 0 should fail")
	}
	if _, err := c.AdjustEpoch(10, nil); !errors.Is(err, ErrBadClock) {
		t.Fatal("no samples should fail")
	}
}

func TestReplicasStayIdenticalAcrossEpochs(t *testing.T) {
	// Three replicas constructed with the same config and fed the same
	// samples must agree exactly at every instruction count.
	mk := func() *Clock { return mustClock(t, defaultCfg()) }
	a, b, c := mk(), mk(), mk()
	samples := [][]EpochSample{
		{{D: 900, R: 1500}, {D: 1100, R: 1400}, {D: 1000, R: 1450}},
		{{D: 2000, R: 3000}, {D: 2200, R: 3100}, {D: 2100, R: 2900}},
		{{D: 500, R: 4000}, {D: 700, R: 4200}, {D: 600, R: 4100}},
	}
	instr := int64(0)
	for _, s := range samples {
		instr += 1000
		for _, cl := range []*Clock{a, b, c} {
			if _, err := cl.AdjustEpoch(1000, s); err != nil {
				t.Fatal(err)
			}
		}
		for probe := instr; probe < instr+500; probe += 100 {
			if a.At(probe) != b.At(probe) || b.At(probe) != c.At(probe) {
				t.Fatalf("replicas diverged at instr %d: %v %v %v",
					probe, a.At(probe), b.At(probe), c.At(probe))
			}
		}
	}
}

// Property: virtual time is strictly monotone in instruction count, for any
// sequence of epoch adjustments (slope is always clamped positive).
func TestMonotoneProperty(t *testing.T) {
	f := func(ds, rs []int64) bool {
		c, err := New(defaultCfg())
		if err != nil {
			return false
		}
		n := len(ds)
		if len(rs) < n {
			n = len(rs)
		}
		if n > 20 {
			n = 20
		}
		instr := int64(0)
		prev := c.At(0)
		for k := 0; k < n; k++ {
			d := sim.Time(abs64(ds[k]) % 1e9)
			r := sim.Time(abs64(rs[k]) % 1e9)
			if _, err := c.AdjustEpoch(1000, []EpochSample{{D: d, R: r}}); err != nil {
				return false
			}
			instr += 1000
			for probe := instr + 1; probe <= instr+1000; probe += 250 {
				v := c.At(probe)
				if v <= prev {
					return false
				}
				prev = v
			}
			if c.Slope() < 0.25 || c.Slope() > 4.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return math.MaxInt64
		}
		return -v
	}
	return v
}

func TestPIT(t *testing.T) {
	p, err := NewPIT(250)
	if err != nil {
		t.Fatal(err)
	}
	if p.Period() != Virtual(4*sim.Millisecond) {
		t.Fatalf("period = %v, want 4ms", p.Period())
	}
	if n := p.Due(Virtual(3 * sim.Millisecond)); n != 0 {
		t.Fatalf("early tick: %d", n)
	}
	if n := p.Due(Virtual(4 * sim.Millisecond)); n != 1 {
		t.Fatalf("tick at period: %d, want 1", n)
	}
	if n := p.Due(Virtual(20 * sim.Millisecond)); n != 4 {
		t.Fatalf("catch-up ticks: %d, want 4", n)
	}
	if p.Ticks() != 5 {
		t.Fatalf("total ticks %d, want 5", p.Ticks())
	}
	if _, err := NewPIT(0); !errors.Is(err, ErrBadClock) {
		t.Fatal("PIT(0) should fail")
	}
}

func TestPITCounter(t *testing.T) {
	p, err := NewPIT(250)
	if err != nil {
		t.Fatal(err)
	}
	// At phase 0 the counter reads full (65536 truncates to 0 in uint16 —
	// hardware-faithful wraparound); just past 0 it is near max.
	c0 := p.Counter(0)
	cQuarter := p.Counter(Virtual(sim.Millisecond))
	cHalf := p.Counter(Virtual(2 * sim.Millisecond))
	if cQuarter <= cHalf {
		t.Fatalf("counter should count down: quarter=%d half=%d", cQuarter, cHalf)
	}
	if c0 != 0 {
		t.Fatalf("full reload wraps to 0 in uint16, got %d", c0)
	}
	if math.Abs(float64(cHalf)-32768) > 2 {
		t.Fatalf("half-period counter = %d, want ~32768", cHalf)
	}
}

func TestTSCAndRTC(t *testing.T) {
	tsc := TSC{HzGHz: 3.0}
	if tsc.Read(0) != 0 || tsc.Read(-5) != 0 {
		t.Fatal("TSC at origin should be 0")
	}
	if tsc.Read(Virtual(1000)) != 3000 {
		t.Fatalf("TSC(1000ns) = %d, want 3000 ticks", tsc.Read(1000))
	}
	var rtc RTC
	if rtc.Read(Virtual(1500*sim.Millisecond)) != 1 {
		t.Fatal("RTC should truncate to seconds")
	}
	if rtc.Read(-1) != 0 {
		t.Fatal("RTC negative clamp")
	}
}

func TestVirtualStringers(t *testing.T) {
	v := Virtual(1500 * sim.Millisecond)
	if v.Seconds() != 1.5 || v.Milliseconds() != 1500 {
		t.Fatal("conversions wrong")
	}
	if v.String() != "v=1.500000s" {
		t.Fatalf("String = %q", v.String())
	}
}
