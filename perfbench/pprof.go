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

// profile is the part of a runtime/pprof CPU profile the attribution
// needs: each sample's stack as function names, innermost first, with
// inlined frames expanded, and its sample count.
type profile struct {
	stacks [][]string
	counts []int64
}

// parseProfile decodes a gzip-compressed profile.proto message as
// runtime/pprof writes it.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		decodeErr error
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) {
		switch num {
		case 2: // sample
			var s sample
			decodeErr = join(decodeErr, fields(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			decodeErr = join(decodeErr, fields(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line
					decodeErr = join(decodeErr, fields(b, func(num, wire int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			decodeErr = join(decodeErr, fields(b, func(num, wire int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if err = join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("pprof: function name index %d out of range", idx)
				}
				stack = append(stack, strs[idx])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.values[0])
	}
	return p, nil
}

// fields walks one protobuf message, calling f for every field with its
// varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func fields(msg []byte, f func(num, wire int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			f(num, wire, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			f(num, wire, binary.LittleEndian.Uint64(msg), nil)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			f(num, wire, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			f(num, wire, uint64(binary.LittleEndian.Uint32(msg)), nil)
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func join(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Attribution layers that are not repo modules.
const (
	layerBench     = "bench"              // the benchmark's own code and its profiler
	layerGC        = "runtime.gc"         // garbage collection, incl. assists
	layerRuntime   = "runtime.other"      // scheduler and other runtime work with no repo caller
	layerOther     = "other"              // repo modules that are no layer of their own
	layerUnclaimed = "unattributed"       // stacks no rule claims
	repoModule     = "cchunter"           // the repo's module path
	benchPackage   = "cchunter/perfbench" // a main package's frames read "main."
)

// layerModules are the repo modules reported as layers of their own;
// every other repo module is folded into layerOther.
var layerModules = []string{
	"sim", "cache", "bus", "divider", "conflict", "bloom", "workload",
	"trace", "auditor", "core", "stats", "recorder", "cchunter", "obs",
}

// classify maps one frame's function name to a layer, or "" when the
// frame belongs to no layer (a standard-library or runtime helper) and
// the walk should move on to its caller.
func classify(fn string) string {
	fn = stripTypeArgs(fn)
	if gcFrame(fn) {
		return layerGC
	}
	pkg := packageOf(fn)
	switch {
	case pkg == "main", pkg == benchPackage, pkg == "runtime/pprof":
		return layerBench
	case pkg == repoModule:
		return "cchunter"
	case strings.HasPrefix(pkg, repoModule+"/internal/"):
		mod := strings.SplitN(strings.TrimPrefix(pkg, repoModule+"/internal/"), "/", 2)[0]
		for _, m := range layerModules {
			if m == mod {
				return m
			}
		}
		return layerOther
	case strings.HasPrefix(pkg, repoModule+"/"):
		return layerOther
	}
	return ""
}

// attribute assigns one sample's stack (innermost frame first) to the
// layer of its innermost claimed frame. Standard-library and runtime
// helpers are charged to the repo code that called them; a stack with
// no claimed frame is runtime work if it is all runtime, and
// unattributed otherwise.
func attribute(stack []string) string {
	allRuntime := len(stack) > 0
	for _, fn := range stack {
		if l := classify(fn); l != "" {
			return l
		}
		if !strings.HasPrefix(packageOf(stripTypeArgs(fn)), "runtime") {
			allRuntime = false
		}
	}
	if allRuntime {
		return layerRuntime
	}
	return layerUnclaimed
}

// gcFrame reports whether fn is garbage-collector work: background
// mark and sweep workers, mark assists and the scavenger.
func gcFrame(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime._GC", "runtime.(*gcWork)", "runtime.(*mspan).sweep",
		"runtime.(*sweepLocked).sweep", "runtime.(*gcControllerState)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// stripTypeArgs removes every bracketed type-argument list from a
// function name, so that "pkg.pool[go.shape.*pkg2.T].get" reads as
// "pkg.pool.get" and the type arguments' own package paths cannot be
// mistaken for the function's.
func stripTypeArgs(fn string) string {
	if !strings.Contains(fn, "[") {
		return fn
	}
	var sb strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// packageOf returns the import path of a function name with its type
// arguments stripped: everything up to the first '.' after the last
// '/'. Closures ("F.func1"), methods ("(*T).M") and inlined copies
// carry the same prefix as the function they come from.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribution is a profile folded into per-layer sample counts.
type attribution struct {
	samples map[string]int64
	total   int64
}

// attributeProfile folds every sample of p into its layer.
func attributeProfile(p *profile) attribution {
	a := attribution{samples: map[string]int64{}}
	for i, st := range p.stacks {
		a.samples[attribute(st)] += p.counts[i]
		a.total += p.counts[i]
	}
	return a
}

// share is the layer's fraction of all samples.
func (a attribution) share(layer string) float64 {
	return ratio(float64(a.samples[layer]), float64(a.total))
}
