package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the pprof wire format (gzipped protobuf, profile.proto)
// — enough to get, for every CPU sample, the innermost function and the
// sample's CPU nanoseconds. Only the fields that needs are decoded:
//
//	Profile:  sample = 2, location = 4, function = 5, string_table = 6
//	Sample:   location_id = 1 (leaf first), value = 2 (samples, cpu ns)
//	Location: id = 1, line = 4 (innermost inlined frame first)
//	Line:     function_id = 1
//	Function: id = 1, name = 2 (string table index)

// protoField is one decoded field: a varint value, or the bytes of a
// length-delimited one.
type protoField struct {
	num  int
	val  uint64
	data []byte
}

var errProto = errors.New("malformed pprof protobuf")

func uvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// fields walks one message.
func fields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := uvarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, b, err = uvarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := uvarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errProto
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated integer field, packed or not.
func repeated(f protoField, into []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(into, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// leafSamples parses a CPU profile and sums CPU nanoseconds by the name of
// each sample's leaf function.
func leafSamples(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf uint64
		ns   int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string index
		strs     []string
	)
	err = fields(raw, func(f protoField) error {
		switch f.num {
		case 2:
			var locs, vals []uint64
			err := fields(f.data, func(f protoField) (err error) {
				switch f.num {
				case 1:
					locs, err = repeated(f, locs)
				case 2:
					vals, err = repeated(f, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[len(vals)-1])})
			}
		case 4:
			var id, fn uint64
			seen := false
			err := fields(f.data, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.val
				case 4:
					if seen {
						return nil
					}
					seen = true
					return fields(f.data, func(f protoField) error {
						if f.num == 1 {
							fn = f.val
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id, name uint64
			err := fields(f.data, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.val
				case 2:
					name = f.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) && i > 0 {
			name = strs[i]
		}
		out[name] += s.ns
	}
	return out, nil
}

// funcPackage splits a symbol such as
// "twolayer/internal/apps/asp.(*state).relaxRows" into its package path.
// Type arguments are dropped first: they may hold slashes and dots of
// their own.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Words that place a Go runtime function: memory copies and clears, the
// allocator and collector, and the built-in maps, strings and interface
// conversions (language services, bucketed with "other"). Every remaining
// runtime function is scheduling: coroutine switches, futex, locks, timers,
// the idle loop.
var (
	memWords   = []string{"memmove", "memclr", "duff", "memequal", "typedslicecopy"}
	gcWords    = []string{"gc", "malloc", "alloc", "scan", "sweep", "mark", "growslice", "span", "heap", "wbuf", "wbBuf", "greyobject", "findObject", "bulkBarrier", "typePointers", "mcache", "mcentral", "nextFree", "arena", "scavenge"}
	otherWords = []string{"map", "hash", "string", "conv", "assert", "iface", "eface", "panic", "print"}
)

// bucketOf names the CPU bucket (see cpuBuckets) a leaf function's time
// belongs to, and the per-application sub-bucket when it has one.
func bucketOf(fn string) (bucket, app string) {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "twolayer/internal/"); ok {
		layer, sub, _ := strings.Cut(rest, "/")
		for _, b := range cpuBuckets {
			if b == layer {
				if layer == "apps" {
					for _, a := range appBuckets {
						if a == sub {
							return layer, a
						}
					}
				}
				return layer, ""
			}
		}
		return "other", ""
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		name := strings.TrimPrefix(fn, pkg+".")
		for _, c := range []struct {
			words  []string
			bucket string
		}{{memWords, "runtime_mem"}, {gcWords, "runtime_gc"}, {otherWords, "other"}} {
			for _, w := range c.words {
				if strings.Contains(name, w) {
					return c.bucket, ""
				}
			}
		}
		return "runtime_sched", ""
	case pkg == "iter" || pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync":
		return "runtime_sched", ""
	case pkg == "internal/bytealg":
		return "runtime_mem", ""
	}
	return "other", ""
}

// cpuBudget turns leaf samples into the group (C) metrics: one share per
// bucket, summing to 1, and the CPU seconds per pass they are shares of.
func cpuBudget(leaves map[string]int64, passes int) map[string]float64 {
	m := make(map[string]float64)
	var total int64
	for _, ns := range leaves {
		total += ns
	}
	for _, b := range cpuBuckets {
		m["cpu."+b+"_share"] = 0
	}
	for _, a := range appBuckets {
		m["cpu.apps_"+a+"_share"] = 0
	}
	if total == 0 {
		m["cpu.other_share"] = 1 // a pass too short to sample once
	}
	for fn, ns := range leaves {
		bucket, app := bucketOf(fn)
		share := float64(ns) / float64(total)
		m["cpu."+bucket+"_share"] += share
		if app != "" {
			m["cpu.apps_"+app+"_share"] += share
		}
	}
	m["cpu.total_s"] = float64(total) / 1e9 / float64(passes)
	return m
}
