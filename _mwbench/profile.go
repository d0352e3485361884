package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// layers are the simulator packages host shares are reported for, the Go
// runtime, and "other" for every function outside them.
var layers = []string{
	"core", "sched", "network", "sim", "traffic", "stats", "flit",
	"police", "runtime", "snapshot", "obs", "other",
}

// hostShares reads a gzipped pprof CPU profile and returns each layer's
// share of its flat samples: a sample is charged to the package of its leaf
// function, the innermost inlined frame, as `pprof -top` does. An empty
// profile yields all zeros.
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]uint64, len(layers))
	var total uint64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		counts[layerOf(p.funcName[p.leafFunc[s.locs[0]]])] += s.values[0]
		total += s.values[0]
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, nil
}

// layerOf maps a Go function name such as
// "mediaworm/internal/core.(*Router).Step" to its layer.
func layerOf(fn string) string {
	// Type arguments may name other packages; the owner precedes them.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "mediaworm/internal/"):
		l, _, _ := strings.Cut(strings.TrimPrefix(pkg, "mediaworm/internal/"), "/")
		if slices.Contains(layers, l) {
			return l
		}
	}
	return "other"
}

// profile holds the parts of a profile.proto message (the format
// runtime/pprof writes) that the bucketing needs.
type profile struct {
	samples  []sample
	leafFunc map[uint64]uint64 // location id → function id of its first (innermost) line
	funcName map[uint64]string // function id → name
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []uint64 // per sample type; CPU profiles put the sample count first
}

var errMalformed = errors.New("pprof: malformed profile")

// Field numbers of profile.proto.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileString   = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	nameIdx := map[uint64]uint64{}
	err := walkFields(b, func(field int, wire, v uint64, data []byte) error {
		switch field {
		case fieldProfileSample:
			var s sample
			err := walkFields(data, func(f int, wire, v uint64, d []byte) (err error) {
				switch f {
				case fieldSampleLocation:
					s.locs, err = varints(s.locs, wire, v, d)
				case fieldSampleValue:
					s.values, err = varints(s.values, wire, v, d)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id, fn uint64
			lines := 0
			err := walkFields(data, func(f int, _, v uint64, d []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					lines++
					if lines > 1 {
						return nil
					}
					return walkFields(d, func(f int, _, v uint64, _ []byte) error {
						if f == fieldLineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.leafFunc[id] = fn
			return err
		case fieldProfileFunction:
			var id, name uint64
			err := walkFields(data, func(f int, _, v uint64, _ []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = v
				}
				return nil
			})
			nameIdx[id] = name
			return err
		case fieldProfileString:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, i := range nameIdx {
		if i >= uint64(len(strs)) {
			return nil, errMalformed
		}
		p.funcName[id] = strs[i]
	}
	return p, nil
}

// walkFields calls fn for each field of one protobuf message: v carries a
// varint field's value, data a length-delimited field's payload. Profiles
// written by runtime/pprof use no other wire types.
func walkFields(b []byte, fn func(field int, wire, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(int(key>>3), key&7, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated scalar field's values: one varint, or a
// packed run of them.
func varints(dst []uint64, wire, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errMalformed
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
