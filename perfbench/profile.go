package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Host-time and allocation attribution. Each profile sample is charged
// to the innermost stack frame that belongs to a repository module, so
// runtime work a module causes (memmove, mallocgc, GC assists) counts as
// that module's. Samples with no repository frame go to gc when they
// are GC background work and to other otherwise; the benchmark's own
// frames (package main) are the client, except the reference kernel's
// (reference.go), which count for no module.

// modules are the attribution buckets, in report order.
var modules = []string{
	"loadgen", "engine", "core", "snapstart", "litterbox", "mpk", "vtx",
	"kernel", "seccomp", "ring", "simnet", "mem", "alloc", "apps", "simdb",
	"probe", "linker", "hw", "obs", "gc", "client", "other",
}

const repoInternal = "github.com/litterbox-project/enclosure/internal/"

// moduleOf maps a function name to its module, or "" for frames outside
// the repository (the Go runtime and standard library).
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "client"
	}
	rest, ok := strings.CutPrefix(fn, repoInternal)
	if !ok {
		if strings.HasPrefix(fn, "github.com/litterbox-project/enclosure.") {
			return "other"
		}
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return "other"
}

// isGCBackground reports whether fn is a GC worker's entry point.
func isGCBackground(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

// isReference reports whether a stack runs the reference kernel.
func isReference(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.(*refClock).") {
			return true
		}
	}
	return false
}

// attribute charges one stack (function names, innermost first).
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	for _, fn := range stack {
		if isGCBackground(fn) {
			return "gc"
		}
	}
	return "other"
}

// shares normalises per-module weights to percentages.
func shares(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		if total > 0 {
			out[m] = 100 * w[m] / total
		} else {
			out[m] = 0
		}
	}
	return out
}

// cpuShares attributes a gzipped pprof CPU profile.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	w := map[string]float64{}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		if isReference(stack) {
			continue
		}
		w[attribute(stack)] += float64(s.values[len(s.values)-1])
	}
	return shares(w), nil
}

// allocSnapshot is the cumulative allocation profile keyed by stack.
type allocSnapshot map[[32]uintptr][2]int64 // bytes, objects

func takeAllocSnapshot() allocSnapshot {
	// Two cycles publish every allocation made so far (the profile lags
	// the heap by up to two GCs).
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] = [2]int64{r.AllocBytes, r.AllocObjects}
	}
	return snap
}

// allocShares attributes the bytes allocated between two snapshots,
// unsampled the way pprof scales heap samples.
func allocShares(before, after allocSnapshot) map[string]float64 {
	rate := float64(runtime.MemProfileRate)
	w := map[string]float64{}
	for stk, a := range after {
		b := before[stk]
		bytes, objs := float64(a[0]-b[0]), float64(a[1]-b[1])
		if bytes <= 0 || objs <= 0 {
			continue
		}
		if rate > 0 {
			bytes /= 1 - math.Exp(-bytes/objs/rate)
		}
		w[attribute(stackNames(stk))] += bytes
	}
	return shares(w)
}

// stackNames resolves a profile stack to function names, innermost
// first, with inlined frames expanded.
func stackNames(stk [32]uintptr) []string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// profile is the part of a pprof protobuf attribution needs.
type profile struct {
	samples   []sample
	locLines  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the profile.proto fields attribution reads:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(msg, func(n int, v uint64, m []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, m)
				case 2:
					for _, x := range appendPacked(nil, v, m) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n int, v uint64, m []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(m, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name out of string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either one
// unpacked value v (msg nil) or a packed run msg.
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with the field
// number and either a varint value or a length-delimited payload.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}
