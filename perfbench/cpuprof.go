package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile comes from runtime/pprof in this process.
// It is a gzip-compressed profile.proto message; the few fields needed
// to rebuild each sample's stack are decoded here with the standard
// library alone.

// cpuLayers are the cpu_share.* buckets in report order.
var cpuLayers = []string{"sched", "mechanism", "netproto", "replica", "obs", "parallel", "runtime.gc", "syscall"}

// layerPackages maps an import path to its cpu_share bucket.
var layerPackages = map[string]string{
	"enki/internal/sched":      "sched",
	"enki/internal/mechanism":  "mechanism",
	"enki/internal/netproto":   "netproto",
	"enki/internal/replica":    "replica",
	"enki/internal/obs":        "obs",
	"enki/internal/parallel":   "parallel",
	"syscall":                  "syscall",
	"internal/runtime/syscall": "syscall",
	"internal/syscall/unix":    "syscall",
}

// gcFrames are the runtime functions that root garbage-collector work:
// the background mark workers, mutator assists, and sweeping.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.sweepone":          true,
	"runtime.bgscavenge":        true,
}

// harnessLabel is the pprof label key the traced run sets on its own
// work between days; samples carrying it are left out of every share.
const harnessLabel = "perfbench"

// cpuSample is one profile sample: its function names, leaf first, its
// sample count, and whether the benchmark's own between-day work took
// it.
type cpuSample struct {
	stack   []string
	count   int64
	harness bool
}

// funcPackage returns the import path of a symbol such as
// "enki/internal/sched.(*Greedy).AllocateInto".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// classify assigns a sample to at most one bucket: runtime.gc when any
// frame roots GC work, otherwise the bucket of the innermost frame that
// belongs to a named package (standard-library frames such as fmt or
// mallocgc count toward the layer that called them). "" means no
// bucket.
func classify(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if layer, ok := layerPackages[funcPackage(f)]; ok {
			return layer
		}
	}
	return ""
}

// cpuShares returns each bucket's share of the program's samples
// (harness samples excluded). Every sample lands in at most one bucket,
// so the shares sum to at most 1.
func cpuShares(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		if !s.harness {
			total += s.count
		}
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		if s.harness {
			continue
		}
		if l := classify(s.stack); l != "" {
			out[l] += float64(s.count) / float64(total)
		}
	}
	return out
}

// parseCPUProfile decodes a gzip-compressed pprof profile into samples.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		count  int64
		labels []int64 // string-table indexes of label keys
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location → function IDs, innermost first
		funcNames = map[uint64]int64{}    // function → string-table index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			var values []uint64
			if err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					values = appendPacked(values, w, v, b)
				case 3: // label
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							s.labels = append(s.labels, int64(v))
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			if err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		harness := false
		for _, k := range s.labels {
			harness = harness || (k >= 0 && int(k) < len(strs) && strs[k] == harnessLabel)
		}
		out = append(out, cpuSample{stack: stack, count: s.count, harness: harness})
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each field of one protobuf message: varint
// fields pass their value, length-delimited ones their bytes.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
