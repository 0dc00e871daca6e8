package main

// The speed reference. This box's neighbours slow it by 10–30 % for seconds
// to minutes at a time (CPU time tracks wall time, so it is contention, not
// pre-emption): identical repetitions of cloud-idle measured 1.28–2.35 s.
// No statistic over repetitions removes an episode that outlasts the run, so
// every host-clock interval the benchmark reports is scaled by how fast a
// frozen reference kernel ran right next to it. The kernel lives here, in
// the benchmark, so no change to the program can speed it up.
//
// The kernel mixes what the simulator's hot path mixes: a binary-heap
// pop+push over 50 000 keys (branchy, cache-resident) and two dependent
// loads through a 16 MiB random cycle (memory latency). On the reference box
// one sample takes refNominal; a host-clock interval that ran while samples
// took twice that is reported at half its wall time. Scaled per window of a
// run, this cut the spread of cloud-idle's run medians from 28 % to 10 %.

import (
	"syscall"
	"time"
	"unsafe"
)

const (
	refIters = 40000
	// refNominal is one sample's duration at the reference box's typical
	// speed (median of 520 samples, 2-vCPU Xeon 2.1 GHz). It only fixes the
	// unit: numbers read as seconds on that box.
	refNominal = 0.0160
)

type speedRef struct {
	iters int // iterations per sample: refIters, or fewer for the smoke test
	heap  []int64
	cycle []int32
	x     uint64
	pos   int32
}

func newSpeedRef(iters int) *speedRef {
	// The cycle lives outside the Go heap, so that the collector paces the
	// workload exactly as it would without the reference.
	const slots = 4 << 20
	mem, err := syscall.Mmap(-1, 0, slots*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err) // 16 MiB of anonymous memory
	}
	k := &speedRef{iters: iters, cycle: unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), slots), x: 88172645463325252}
	for i := range k.cycle {
		k.cycle[i] = int32(i)
	}
	for i := len(k.cycle) - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := int(k.rnd() % uint64(i))
		k.cycle[i], k.cycle[j] = k.cycle[j], k.cycle[i]
	}
	for i := 0; i < 50000; i++ {
		k.push(int64(k.rnd() % 1000000))
	}
	k.sample() // touch everything once
	return k
}

func (k *speedRef) rnd() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

func (k *speedRef) push(v int64) {
	k.heap = append(k.heap, v)
	for i := len(k.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if k.heap[p] <= k.heap[i] {
			break
		}
		k.heap[p], k.heap[i] = k.heap[i], k.heap[p]
		i = p
	}
}

func (k *speedRef) pop() int64 {
	v, n := k.heap[0], len(k.heap)-1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && k.heap[l] < k.heap[m] {
			m = l
		}
		if r < n && k.heap[r] < k.heap[m] {
			m = r
		}
		if m == i {
			return v
		}
		k.heap[m], k.heap[i] = k.heap[i], k.heap[m]
		i = m
	}
}

// sample runs the kernel once and returns its duration in seconds, as if
// for refIters iterations.
func (k *speedRef) sample() float64 {
	t0 := time.Now()
	for i := 0; i < k.iters; i++ {
		k.push(k.pop() + int64(k.rnd()%1000))
		k.pos = k.cycle[k.cycle[k.pos]]
	}
	return time.Since(t0).Seconds() * refIters / float64(k.iters)
}

// hostTimer times intervals of host work, taking a reference sample after
// each one. An interval is scaled by the mean of the samples on either side.
type hostTimer struct {
	ref  *speedRef
	last float64 // the most recent sample
	// speeds collects refNominal/sample for every sample taken: 1 is the
	// reference box's typical speed.
	speeds []float64
	// tr, set for the traced repetition, records each sample as a span.
	tr *tracer
}

// newHostTimer builds the reference; smoke shortens its samples twentyfold.
func newHostTimer(smoke bool) *hostTimer {
	iters := refIters
	if smoke {
		iters /= 20
	}
	t := &hostTimer{ref: newSpeedRef(iters)}
	t.resample()
	return t
}

func (t *hostTimer) resample() {
	sp := t.tr.begin("speedref")
	t.last = t.ref.sample()
	t.tr.end(sp)
	t.speeds = append(t.speeds, refNominal/t.last)
}

// time runs fn and returns its wall seconds, raw and scaled to reference
// speed.
func (t *hostTimer) time(fn func() error) (raw, scaled float64, err error) {
	before := t.last
	t0 := time.Now()
	err = fn()
	raw = time.Since(t0).Seconds()
	t.resample()
	return raw, raw * refNominal / ((before + t.last) / 2), err
}
