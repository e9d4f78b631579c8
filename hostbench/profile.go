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

// This file turns a runtime/pprof CPU profile into self-time shares per
// package (cpu.<pkg>.pct). It decodes the few fields of the profile.proto
// message it needs with a minimal protobuf reader, since the benchmark
// imports nothing outside the standard library and this repository.

// cpuPackages are the reported packages: the repository's layers, the
// standard-library packages the serve path leans on, and the runtime split
// into allocator, collector and the rest.
var cpuPackages = []string{
	"engine", "scheduler", "memorymgr", "cluster", "graph", "dataset", "mdf",
	"baseline", "workload.dnn", "workload.kde", "workload.timeseries",
	"workload.synthetic", "spec", "plan", "service", "journal", "ckptstore",
	"obs", "encoding.json", "fmt", "strconv", "net.http", "syscall",
	"runtime.malloc", "runtime.gc", "runtime.other",
}

// cpuShares returns, for every package in cpuPackages, the percentage of
// profile samples whose innermost frame lies in that package.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		total += s.values[0]
		name := ""
		if fns := p.locLeaf[s.locs[0]]; fns != 0 {
			if idx := p.funcName[fns]; idx >= 0 && int(idx) < len(p.strings) {
				name = p.strings[idx]
			}
		}
		counts[classify(name)] += s.values[0]
	}
	out := make(map[string]float64, len(cpuPackages))
	for _, k := range cpuPackages {
		out["cpu."+k+".pct"] = 0
		if total > 0 {
			out["cpu."+k+".pct"] = 100 * float64(counts[k]) / float64(total)
		}
	}
	return out, nil
}

// classify maps a fully qualified function name to a reported package.
func classify(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch {
	case pkg == "runtime":
		return classifyRuntime(fn)
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case strings.HasPrefix(pkg, "metadataflow/internal/"):
		return strings.ReplaceAll(strings.TrimPrefix(pkg, "metadataflow/internal/"), "/", ".")
	}
	return strings.ReplaceAll(pkg, "/", ".")
}

// classifyRuntime attributes runtime functions to allocation or garbage
// collection by name; the rest (scheduler, maps, copies) is
// "runtime.other".
func classifyRuntime(fn string) string {
	name := strings.TrimPrefix(fn, "runtime.")
	for _, k := range []string{"malloc", "mcache", "mcentral", "mheap", "nextFree", "newobject", "makeslice", "growslice", "newarray", "memclrNoHeapPointers", "heapBits", "(*mspan).init", "allocSpan"} {
		if strings.Contains(name, k) {
			return "runtime.malloc"
		}
	}
	for _, k := range []string{"gc", "GC", "scanobject", "scanblock", "scanstack", "markroot", "greyobject", "findObject", "sweep", "wbBuf", "bulkBarrier", "typePointers", "markBits", "spanOf", "(*gcWork)", "(*mspan).mark"} {
		if strings.Contains(name, k) {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	samples  []pbSample
	locLeaf  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

// decodeProfile reads the sample (2), location (4), function (5) and
// string_table (6) fields of a profile.proto message.
func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s pbSample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, leaf uint64
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && leaf == 0:
					// The first line is the innermost (inlined) function.
					return eachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							leaf = lv
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = leaf
			return err
		case 5:
			var id uint64
			var name int64 = -1
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields data holds the bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either packed or
// unpacked encoding.
func appendVarints(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}
