package main

// A minimal reader for the CPU profile of the traced repetition: enough of
// profile.proto (gzip'd protobuf) to attribute each sample to its leaf
// frame's function, and the bucketing of functions into layers. The share a
// layer gets is its self time: the ceiling on what speeding that layer up
// can save on the workload.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// pb is a cursor over one protobuf message.
type pb []byte

var errProto = errors.New("profile: malformed protobuf")

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*p) == 0 {
			return 0, errProto
		}
		b := (*p)[0]
		*p = (*p)[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over.
func (p *pb) field() (num int, val uint64, data pb, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(*p)) {
				return 0, 0, nil, errProto
			}
			data, *p = (*p)[:n], (*p)[n:]
		}
	default:
		err = errProto
	}
	return num, val, data, err
}

func (p *pb) skip(n int) error {
	if len(*p) < n {
		return errProto
	}
	*p = (*p)[n:]
	return nil
}

// repeated appends a repeated scalar field, packed or not.
func repeated(dst []uint64, val uint64, data pb) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	for len(data) > 0 {
		v, err := data.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// leafSamples parses a pprof CPU profile and returns the sampled weight
// (the profile's last value column, CPU nanoseconds) per leaf function name.
func leafSamples(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf   uint64
		weight uint64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id → innermost function id
	funcName := map[uint64]uint64{} // function id → string-table index
	var strs []string
	for msg := pb(raw); len(msg) > 0; {
		num, _, data, err := msg.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample: location_id = 1 (leaf first), value = 2
			var locs, vals []uint64
			for len(data) > 0 {
				n, v, d, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					locs, err = repeated(locs, v, d)
				case 2:
					vals, err = repeated(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], weight: vals[len(vals)-1]})
			}
		case 4: // Location: id = 1, line = 4 (innermost inlined frame first)
			var id, fn uint64
			seen := false
			for len(data) > 0 {
				n, v, d, err := data.field()
				if err != nil {
					return nil, err
				}
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen: // Line: function_id = 1
					seen = true
					for len(d) > 0 {
						ln, lv, _, err := d.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fn = lv
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for len(data) > 0 {
				n, v, _, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) && i > 0 {
			name = strs[i]
		}
		out[name] += float64(s.weight)
	}
	return out, nil
}

// simLayers are the packages under internal/ that get a CPU bucket of their
// own. The other buckets are the Go runtime split three ways (runtime.map,
// runtime.mem, runtime.other), the benchmark's own generator and checks
// (bench), and everything else (other).
var simLayers = map[string]bool{
	"sim": true, "netsim": true, "multicast": true, "vmm": true, "gateway": true, "core": true,
	"controlplane": true, "placement": true, "guest": true, "vtime": true, "transport": true, "apps": true,
}

// runtimeMem are the substrings that mark a runtime function as allocator,
// collector or bulk-memory work.
var runtimeMem = []string{
	"malloc", "newobject", "growslice", "makeslice", "gc", "scan", "grey", "mark", "sweep",
	"mspan", "mheap", "mcache", "mcentral", "memmove", "memclr", "heapBits", "scaveng",
	"wbBuf", "bulkBarrier", "typePointers", "findObject", "spanOf", "nextFree", "pageAlloc",
	"pallocData", "stackalloc", "stackfree", "madvise", "sysUsed", "sysUnused",
}

func cpuLayerOf(fn string) string {
	const internal = "stopwatch/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if pkg = pkg[:strings.IndexAny(pkg+".", "./")]; simLayers[pkg] {
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "stopwatch/bench."):
		return "bench"
	case strings.HasPrefix(fn, "internal/runtime/maps."), strings.HasPrefix(fn, "runtime.map"),
		strings.HasPrefix(fn, "runtime.strhash"), strings.HasPrefix(fn, "runtime.memhash"),
		strings.HasPrefix(fn, "runtime.aeshash"), strings.HasPrefix(fn, "aeshashbody"):
		return "runtime.map"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/"):
		for _, s := range runtimeMem {
			if strings.Contains(fn, s) {
				return "runtime.mem"
			}
		}
		return "runtime.other"
	}
	return "other"
}

// cpuShares turns a CPU profile into the percentage of samples per layer.
// The shares sum to 100.
func cpuShares(gz []byte) (map[string]float64, error) {
	leaves, err := leafSamples(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	total := 0.0
	for fn, w := range leaves {
		if strings.Contains(fn, "speedRef") {
			continue // the speed reference is not part of the workload
		}
		shares[cpuLayerOf(fn)] += w
		total += w
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for k := range shares {
		shares[k] *= 100 / total
	}
	return shares, nil
}
