package metrics

import "sort"

// Sharded metric families back the multi-core simulation: each shard
// goroutine mutates only its own cells (no locks, no contention, no
// cross-shard happens-before needed beyond the coordinator's barriers),
// and the registry merges the cells deterministically at snapshot time.
// Merged output is identical for every shard count: counters sum, and
// labeled children render in sorted-label order — first-use order would
// depend on how traffic interleaves across shards.

// shardCounterCell is one (shard, label) counter cell.
type shardCounterCell struct{ n uint64 }

// counterShardState is one shard's slice of a ShardedCounterVec.
type counterShardState struct {
	byLabel map[string]*shardCounterCell
}

// ShardedCounterVec is a counter family keyed by one label whose
// increments are per-shard and merged at snapshot.
type ShardedCounterVec struct {
	f      *family
	shards []*counterShardState
}

// NewShardedCounterVec registers a sharded counter family for the given
// shard count.
func (r *Registry) NewShardedCounterVec(name, help, label string, shards int) *ShardedCounterVec {
	if shards < 1 {
		panic("metrics: sharded vec needs >= 1 shard")
	}
	v := &ShardedCounterVec{f: r.register(name, help, KindCounter, nonEmptyLabel(name, label))}
	for i := 0; i < shards; i++ {
		v.shards = append(v.shards, &counterShardState{byLabel: make(map[string]*shardCounterCell)})
	}
	v.f.mergeSamples = v.merged
	return v
}

// Shard returns shard k's cell view; it must only be used from that
// shard's goroutine (or while the shards are parked at a barrier).
func (v *ShardedCounterVec) Shard(k int) ShardCounterVec {
	return ShardCounterVec{s: v.shards[k]}
}

// merged renders sum-per-label samples in sorted-label order.
func (v *ShardedCounterVec) merged() []Sample {
	sums := make(map[string]uint64)
	for _, s := range v.shards {
		for label, c := range s.byLabel {
			sums[label] += c.n
		}
	}
	labels := make([]string, 0, len(sums))
	for label := range sums {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make([]Sample, 0, len(labels))
	for _, label := range labels {
		out = append(out, Sample{LabelValue: label, Counter: sums[label]})
	}
	return out
}

// ShardCounterVec is one shard's view of a ShardedCounterVec. The zero
// value is invalid (Valid reports false) — how detached instrumentation
// is represented without a nil-able pointer on the hot path.
type ShardCounterVec struct{ s *counterShardState }

// Valid reports whether the view is bound to a registered family.
func (v ShardCounterVec) Valid() bool { return v.s != nil }

// With returns the shard-local child counter for the label value,
// interning it on first use.
func (v ShardCounterVec) With(labelValue string) ShardCounter {
	c, ok := v.s.byLabel[labelValue]
	if !ok {
		c = &shardCounterCell{}
		v.s.byLabel[labelValue] = c
	}
	return ShardCounter{c: c}
}

// ShardCounter is one shard-local counter cell.
type ShardCounter struct{ c *shardCounterCell }

// Inc adds one.
func (c ShardCounter) Inc() { c.c.n++ }

// ShardedHistogram is a scalar histogram whose observations are per-shard
// and merged at snapshot: every shard holds a full bucket array with the
// family's fixed bounds, and the merged sample is the element-wise sum.
type ShardedHistogram struct {
	f      *family
	bounds []int64
	cells  []*child
}

// NewShardedHistogram registers a sharded scalar histogram for the given
// shard count.
func (r *Registry) NewShardedHistogram(name, help string, bounds []int64, shards int) *ShardedHistogram {
	if shards < 1 {
		panic("metrics: sharded histogram needs >= 1 shard")
	}
	h := &ShardedHistogram{
		f:      r.register(name, help, KindHistogram, ""),
		bounds: validateBounds(name, bounds),
	}
	for i := 0; i < shards; i++ {
		c := &child{bounds: h.bounds, counts: make([]uint64, len(h.bounds)+1)}
		h.cells = append(h.cells, c)
	}
	h.f.mergeSamples = h.merged
	return h
}

// Shard returns shard k's cell as an ordinary Histogram handle: Observe on
// it is a plain shard-local update, so existing hot-path hooks (e.g. the
// device model's LatencyHist) take it without knowing about sharding.
func (h *ShardedHistogram) Shard(k int) Histogram { return Histogram{c: h.cells[k]} }

// Merged returns the cross-shard histogram state as a Histogram over a
// freshly summed cell (barrier-time reads; not a live view).
func (h *ShardedHistogram) Merged() Histogram {
	m := &child{bounds: h.bounds, counts: make([]uint64, len(h.bounds)+1)}
	for _, c := range h.cells {
		for i, n := range c.counts {
			m.counts[i] += n
		}
		m.sum += c.sum
		m.count += c.count
	}
	return Histogram{c: m}
}

// merged renders the single summed sample.
func (h *ShardedHistogram) merged() []Sample {
	m := h.Merged().c
	return []Sample{{
		Bounds: m.bounds,
		Counts: append([]uint64(nil), m.counts...),
		Sum:    m.sum,
		Count:  m.count,
	}}
}
