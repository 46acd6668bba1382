package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuShareLayers are the internal/ packages that get their own *.cpu_share
// row. Samples anywhere else (the allocator, memmove, the benchmark's own
// loop, unlisted packages) land in runtime.other_cpu_share, and samples
// under the collector's entry points in runtime.gc_cpu_share, so the rows
// sum to 1 by construction.
var cpuShareLayers = []string{
	"sim", "packet", "fpga", "cc", "tofino", "netem", "aqm", "fabric", "shard",
	"faults", "workload", "measure", "controlplane", "core",
}

// cpuProfile collects a CPU profile over the measured slices of the traced
// rep. Only runtime/pprof's own writer goroutine runs besides the library.
type cpuProfile struct{ buf bytes.Buffer }

func (p *cpuProfile) start() error {
	if p == nil {
		return nil
	}
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() {
	if p != nil {
		pprof.StopCPUProfile()
	}
}

// shares folds the profile's flat samples by package into cpu_share rows.
// A run too short to catch a single sample charges everything to
// runtime.other_cpu_share so the rows still sum to 1.
func (p *cpuProfile) shares() (map[string]float64, error) {
	out := map[string]float64{"runtime.gc_cpu_share": 0, "runtime.other_cpu_share": 0}
	for _, l := range cpuShareLayers {
		out[l+".cpu_share"] = 0
	}
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		out["runtime.other_cpu_share"] = 1
		return out, nil
	}
	for _, s := range samples {
		out[shareRow(s.stack)] += s.weight / total
	}
	return out, nil
}

// shareRow names the cpu_share row a sample belongs to. stack lists function
// names leaf first.
func shareRow(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.Contains(fn, "sweepLocked") {
			return "runtime.gc_cpu_share"
		}
	}
	if len(stack) > 0 {
		if rest, ok := strings.CutPrefix(stack[0], "marlin/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, l := range cpuShareLayers {
				if pkg == l {
					return l + ".cpu_share"
				}
			}
		}
	}
	return "runtime.other_cpu_share"
}

type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	weight float64  // first sample value (sample count)
}

// decodeProfile reads the fields of a profile.proto message that folding
// needs: samples, locations, functions and the string table.
func decodeProfile(raw []byte) ([]profSample, error) {
	type rawSample struct {
		locs   []uint64
		weight float64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err := walkProto(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := walkProto(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendRepeated(&s.locs, v, b)
				case 2:
					return appendRepeated(&values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.weight = float64(int64(values[0]))
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := walkProto(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{weight: s.weight}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkProto calls fn for every field of one protobuf message: v carries a
// varint field's value, b a length-delimited field's bytes.
func walkProto(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("cpu profile: truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("cpu profile: truncated varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return fmt.Errorf("cpu profile: truncated fixed field")
			}
			msg = msg[size:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("cpu profile: truncated bytes field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated adds one repeated-varint occurrence: a single value, or a
// packed run of them.
func appendRepeated(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return fmt.Errorf("cpu profile: truncated packed field")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
