package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source produces named, independent, deterministic random streams. Streams
// are derived from a master seed and a string label, so adding a new stream
// to a component never perturbs the draws seen by existing components — a
// property the figure harnesses rely on for stable series.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory for the given master seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream returns the deterministic stream named label.
func (s *Source) Stream(label string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	mixed := splitmix64(s.seed ^ h.Sum64())
	return &Rand{r: rand.New(rand.NewSource(int64(mixed)))}
}

// splitmix64 is the SplitMix64 finalizer, used to decorrelate seed/label
// combinations before they reach math/rand.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FastStream returns the deterministic SplitMix64 counter stream named
// label: 8 bytes of state and no seeding pass, where Stream costs a ~5KB
// math/rand source and a 607-word seed loop. Use it where streams are
// created in bulk and only need the simple draws FastRand offers; the
// fabric holds one by value in each directed link (FastHashed). Like
// Stream, the sequence is a pure function of (master seed, label);
// creation order is irrelevant.
func (s *Source) FastStream(label string) *FastRand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	r := s.FastHashed(h.Sum64())
	return &r
}

// FastHashed is FastStream by value, for a label the caller has already
// hashed with FNV-1a (the fabric's link hash, of "src|dst"): a stream held
// inline in a larger record costs no allocation and no second hash.
func (s *Source) FastHashed(h uint64) FastRand { return FastRand{state: splitmix64(s.seed ^ h)} }

// FastRand is a SplitMix64 counter generator: statistically solid for
// physics draws (jitter, loss), trivially cheap to create, 8 bytes of
// state. Not safe for concurrent use.
type FastRand struct {
	state uint64
}

func (r *FastRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform draw in [0,1).
func (r *FastRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// UniformDur returns a uniform duration in [lo,hi).
func (r *FastRand) UniformDur(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	// Modulo bias is ~range/2^64 — immaterial for sub-millisecond jitter.
	return lo + Time(r.next()%uint64(hi-lo))
}

// Bool returns true with probability p.
func (r *FastRand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Rand is a deterministic random stream with the distribution helpers the
// simulator needs. It is not safe for concurrent use; the event loop is
// single-threaded by design.
type Rand struct {
	r *rand.Rand
}

// Float64 returns a uniform draw in [0,1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (r *Rand) Int63() int64 { return r.r.Int63() }

// Uint64 returns a uniform 64-bit draw. Used to derive sub-seeds (e.g. the
// fabric's per-link streams) from a component's stream without consuming a
// label in the Source namespace.
func (r *Rand) Uint64() uint64 { return r.r.Uint64() }

// Exp returns an exponential draw with the given rate (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return r.r.ExpFloat64() / rate
}

// ExpDur returns an exponential duration with the given mean.
func (r *Rand) ExpDur(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(r.r.ExpFloat64() * float64(mean))
}

// Uniform returns a uniform draw in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*r.r.Float64()
}

// UniformDur returns a uniform duration in [lo,hi).
func (r *Rand) UniformDur(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.r.Int63n(int64(hi-lo)))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.r.Float64() < p
}
