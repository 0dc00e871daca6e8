// Package sim provides a deterministic discrete-event simulation kernel:
// an event loop with a stable total order on events, seeded random-number
// streams, and per-host drifting real-time clocks.
//
// Everything in the StopWatch reproduction runs on this kernel. Determinism
// is a hard requirement: two runs with the same seed produce bit-identical
// event sequences, which is what makes replica-divergence detection and the
// figure-regeneration harnesses meaningful.
package sim

import "fmt"

// Time is an instant of simulated fabric time, in nanoseconds since the
// start of the simulation. It is the global timeline of the event loop;
// individual hosts observe skewed versions of it through Clock.
type Time int64

// Common durations in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable instant.
const Never Time = 1<<63 - 1

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the instant with millisecond precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("t=%.6fs", t.Seconds())
}

// FromSeconds converts seconds to a simulated Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts milliseconds to a simulated Time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }
