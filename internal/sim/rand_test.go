package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamsIndependentOfRegistrationOrder(t *testing.T) {
	s1 := NewSource(7)
	a1 := s1.Stream("alpha")
	_ = s1.Stream("beta")
	first := []float64{a1.Float64(), a1.Float64(), a1.Float64()}

	s2 := NewSource(7)
	_ = s2.Stream("gamma") // different interleaving of stream creation
	a2 := s2.Stream("alpha")
	for i, want := range first {
		if got := a2.Float64(); got != want {
			t.Fatalf("draw %d: got %v want %v — streams not order-independent", i, got, want)
		}
	}
}

func TestStreamsDifferByLabelAndSeed(t *testing.T) {
	s := NewSource(7)
	a := s.Stream("alpha")
	b := s.Stream("beta")
	if a.Float64() == b.Float64() {
		t.Fatal("distinct labels produced identical first draws")
	}
	c := NewSource(8).Stream("alpha")
	d := NewSource(7).Stream("alpha")
	if c.Float64() == d.Float64() {
		t.Fatal("distinct seeds produced identical first draws")
	}
}

func TestExpDurMean(t *testing.T) {
	r := NewSource(1).Stream("expdur")
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.ExpDur(10 * Millisecond))
	}
	mean := sum / n / float64(Millisecond)
	if math.Abs(mean-10) > 0.3 {
		t.Fatalf("ExpDur(10ms) sample mean = %vms, want ~10ms", mean)
	}
}

// TestUniformBounds: the fabric's jitter draw (FastRand.UniformDur) stays
// in [lo,hi) and a degenerate range returns lo.
func TestUniformBounds(t *testing.T) {
	r := NewSource(3).FastStream("uni")
	for i := 0; i < 10000; i++ {
		v := r.UniformDur(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("UniformDur(2,5) = %v out of range", v)
		}
	}
	if got := r.UniformDur(4, 4); got != 4 {
		t.Fatalf("degenerate UniformDur = %v, want 4", got)
	}
}

func TestUniformDurBounds(t *testing.T) {
	r := NewSource(3).Stream("unidur")
	for i := 0; i < 10000; i++ {
		v := r.UniformDur(Millisecond, 2*Millisecond)
		if v < Millisecond || v >= 2*Millisecond {
			t.Fatalf("UniformDur out of range: %v", v)
		}
	}
	if got := r.UniformDur(5, 5); got != 5 {
		t.Fatalf("degenerate UniformDur = %v, want 5", got)
	}
}

// TestBoolEdges: the fabric's loss draw (FastRand.Bool) never drops at
// p = 0, always drops at p = 1, and hits p in between.
func TestBoolEdges(t *testing.T) {
	r := NewSource(4).FastStream("bool")
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			n++
		}
	}
	p := float64(n) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
}

func TestExpZeroRate(t *testing.T) {
	r := NewSource(5).Stream("z")
	if got := r.ExpDur(0); got != 0 {
		t.Fatalf("ExpDur(0) = %v, want 0", got)
	}
}

// Property: the same (seed,label) always reproduces the same prefix.
func TestStreamReproducibility(t *testing.T) {
	f := func(seed uint64, label string) bool {
		a := NewSource(seed).Stream(label)
		b := NewSource(seed).Stream(label)
		for i := 0; i < 16; i++ {
			if a.Int63() != b.Int63() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClockRead(t *testing.T) {
	c := NewClock(5*Second, 1e-4)
	if got := c.Read(0); got != 5*Second {
		t.Fatalf("Read(0) = %v, want offset", got)
	}
	at := Time(1e9)
	h := c.Read(at)
	want := 5*Second + at + Time(float64(at)*1e-4)
	if h != want {
		t.Fatalf("Read = %v, want %v", h, want)
	}
	if c.Drift() != 1e-4 {
		t.Fatal("Drift wrong")
	}
}

func TestClockZeroDrift(t *testing.T) {
	c := NewClock(0, 0)
	for _, tt := range []Time{0, 1, Second, 100 * Second} {
		if c.Read(tt) != tt {
			t.Fatalf("zero clock should be identity at %v", tt)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatal("FromSeconds wrong")
	}
	if FromMillis(2.5) != 2500*Microsecond {
		t.Fatal("FromMillis wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds wrong")
	}
	if (3 * Millisecond).Milliseconds() != 3.0 {
		t.Fatal("Milliseconds wrong")
	}
	if Never.String() != "never" {
		t.Fatal("Never.String wrong")
	}
	if (1500 * Millisecond).String() != "t=1.500000s" {
		t.Fatalf("String = %q", (1500 * Millisecond).String())
	}
}
