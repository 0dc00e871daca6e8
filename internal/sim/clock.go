package sim

// Clock models a host's hardware real-time clock. Hosts do not observe the
// fabric timeline directly: each clock has a fixed boot offset and a small
// rate error (drift), so the "real time" exchanged between StopWatch VMMs —
// e.g. when choosing the median boot time (Sec. IV-A) — differs per host
// exactly as it would across physical machines.
//
// hostTime(t) = offset + t·(1+drift)
type Clock struct {
	offset Time
	drift  float64 // fractional rate error, e.g. 2e-5 = 20 ppm fast
}

// NewClock returns a clock with the given boot offset and fractional drift.
func NewClock(offset Time, drift float64) *Clock {
	return &Clock{offset: offset, drift: drift}
}

// Read returns the host's view of real time at fabric time t.
func (c *Clock) Read(t Time) Time {
	return c.offset + t + Time(float64(t)*c.drift)
}

// Drift returns the clock's fractional rate error.
func (c *Clock) Drift() float64 { return c.drift }
