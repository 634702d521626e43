package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// A reader for the part of pprof's profile.proto a CPU profile needs:
// samples, the locations their stacks name, and the function of each
// location line. The standard library writes this format but cannot read
// it, and the benchmark may import nothing else.

// stackSample is one profile sample: function names from the innermost
// frame outwards, and how many times the stack was seen.
type stackSample struct {
	stack []string
	count int64
}

var errProto = errors.New("profile: malformed protobuf")

// protoField is one decoded field: a varint value or a length-delimited
// payload. Fixed-width fields are skipped; profile.proto has none we need.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

func readFields(b []byte, each func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, rest, err = readVarint(rest)
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = readVarint(rest)
			if err == nil && n > uint64(len(rest)) {
				err = errProto
			}
			if err == nil {
				f.data, rest = rest[:n], rest[n:]
			}
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err != nil {
			return err
		}
		if err := each(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile into its samples, taking
// each sample's first value (for a CPU profile, the sample count).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost inlined first
		funcNames = map[uint64]uint64{}   // function id → string table index
		strs      []string
	)
	err = readFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := readFields(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarint(s.locs, g)
				case 2:
					vals, err = repeatedVarint(vals, g)
				}
				return err
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := readFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return readFields(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := readFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, stackSample{stack: stack, count: s.count})
	}
	return out, nil
}

const layerPrefix = "lazyctrl/internal/"

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf charges a stack to the innermost frame that belongs to a layer,
// so runtime work (malloc, map access, GC assist) goes to the layer that
// caused it. Frames of packages that are not layers (model, tenant,
// failover) are looked through. A stack with no layer frame is the
// runtime's own background work.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, layerPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 && isLayer[rest[:i]] {
			return rest[:i]
		}
	}
	return runtimeLayer
}

// foldShares folds samples by layer into percentages that sum to 100.
func foldShares(samples []stackSample) (shares map[string]float64, total int64) {
	counts := make(map[string]int64)
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares = make(map[string]float64, len(counts))
	for l, c := range counts {
		shares[l] = 100 * float64(c) / float64(total)
	}
	return shares, total
}

// cpuProfileHz is the sampling rate asked of the profiled pass, five times
// the default. A kernel whose timers tick at 250 Hz delivers about 220.
const cpuProfileHz = 500

// withCPUProfile runs fn under the CPU profiler and returns the samples.
func withCPUProfile(fn func() error) ([]stackSample, error) {
	var buf bytes.Buffer
	// StartCPUProfile always asks for 100 Hz; a rate set beforehand wins,
	// at the price of one line on stderr from the runtime.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

// memProfileRate is the heap sampling rate of the allocation pass, in
// bytes: fine enough for shares of a run that allocates a few hundred MB,
// coarse enough not to take longer than the run itself.
const memProfileRate = 4096

// allocKey names one bucket of the runtime's memory profile. The runtime
// keeps a bucket per allocating stack and object size, so a call site that
// allocates varying sizes (append, make with a variable length) owns several
// records with the same stack.
type allocKey struct {
	stack [32]uintptr
	size  int64
}

// sumRecords adds up the objects of one reading of the memory profile by
// bucket. Records whose stacks are deeper than the 32 frames kept can share
// a key; they are summed, not overwritten.
func sumRecords(recs []runtime.MemProfileRecord) map[allocKey]int64 {
	m := make(map[allocKey]int64, len(recs))
	for _, r := range recs {
		if r.AllocObjects > 0 {
			m[allocKey{r.Stack0, r.AllocBytes / r.AllocObjects}] += r.AllocObjects
		}
	}
	return m
}

// allocsBetween estimates, per allocating stack, how many objects were
// allocated between two readings of a memory profile sampled every rate
// bytes. An object of size s is sampled with probability 1-exp(-s/rate);
// that is undone bucket by bucket, as pprof does, so small objects count in
// full, and the buckets of one stack are then added.
func allocsBetween(before, after []runtime.MemProfileRecord, rate float64) map[[32]uintptr]float64 {
	was := sumRecords(before)
	out := make(map[[32]uintptr]float64)
	for k, n := range sumRecords(after) {
		if objs := n - was[k]; objs > 0 && k.size > 0 {
			out[k.stack] += float64(objs) / (1 - math.Exp(-float64(k.size)/rate))
		}
	}
	return out
}

// withMemProfile runs fn with heap sampling raised and returns the
// allocations made during it, one sample per allocating stack with the
// estimated number of objects as its count.
func withMemProfile(fn func() error) ([]stackSample, error) {
	read := func() []runtime.MemProfileRecord {
		// The profile is complete only up to the last finished collection.
		runtime.GC()
		runtime.GC()
		n, _ := runtime.MemProfile(nil, true)
		for {
			recs := make([]runtime.MemProfileRecord, n+64)
			var ok bool
			if n, ok = runtime.MemProfile(recs, true); ok {
				return recs[:n]
			}
		}
	}
	old := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	before := read()
	err := fn()
	after := read()
	runtime.MemProfileRate = old
	if err != nil {
		return nil, err
	}
	var out []stackSample
	for pcs, objs := range allocsBetween(before, after, memProfileRate) {
		depth := 0
		for depth < len(pcs) && pcs[depth] != 0 {
			depth++
		}
		var stack []string
		frames := runtime.CallersFrames(pcs[:depth])
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out = append(out, stackSample{stack: stack, count: int64(objs + 0.5)})
	}
	return out, nil
}
