package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The stage-share ledger: CPU-profile samples of the traced passes mapped
// to the simulator's pipeline stages and the memory hierarchy. A share is
// the fraction of samples inside (*Core).RunLimit — the simulator's run
// loop — whose stack also contains the stage function (inlined frames
// included), so shares are inclusive and need not sum to 1.

// stageNames are the simeng stages, in pipeline order.
var stageNames = []string{"fetch", "rename", "dispatch", "issue", "memory", "commit", "seqheap"}

const (
	simengPkg   = "armdse/internal/simeng."
	runLoopFunc = simengPkg + "(*Core).RunLimit"
)

// stageFuncs maps each share metric to the function-name prefix whose
// samples it counts.
var stageFuncs = map[string]string{
	"simeng.share.fetch":    simengPkg + "(*Core).fetchStage",
	"simeng.share.rename":   simengPkg + "(*Core).renameStage",
	"simeng.share.dispatch": simengPkg + "(*Core).dispatchStage",
	"simeng.share.issue":    simengPkg + "(*Core).issueStage",
	"simeng.share.memory":   simengPkg + "(*Core).memoryStage",
	"simeng.share.commit":   simengPkg + "(*Core).commitStage",
	"simeng.share.seqheap":  simengPkg + "(*seqHeap).",
	"sstmem.share.access":   "armdse/internal/sstmem.(*Hierarchy).Access",
	"sstmem.share.prefetch": "armdse/internal/sstmem.(*Hierarchy).prefetchLine",
}

// profileShares accumulates sample counts over several profiles.
type profileShares struct {
	inLoop  int64
	byStage map[string]int64
}

// into stores the shares in m; every share is 0 when no sample fell in the
// simulator (the analyze workload).
func (p *profileShares) into(m map[string]float64) {
	for metric := range stageFuncs {
		m[metric] = 0
		if p.inLoop > 0 {
			m[metric] = float64(p.byStage[metric]) / float64(p.inLoop)
		}
	}
}

// add decodes one gzipped pprof CPU profile and adds its samples.
func (p *profileShares) add(data []byte) error {
	prof, err := decodeProfile(data)
	if err != nil {
		return fmt.Errorf("decoding CPU profile: %w", err)
	}
	if p.byStage == nil {
		p.byStage = map[string]int64{}
	}
	for _, s := range prof.samples {
		seen := map[string]bool{}
		inLoop := false
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				name := prof.funcName[fn]
				if name == runLoopFunc {
					inLoop = true
				}
				for metric, prefix := range stageFuncs {
					if strings.HasPrefix(name, prefix) {
						seen[metric] = true
					}
				}
			}
		}
		if !inLoop {
			continue
		}
		p.inLoop += s.count
		for metric := range seen {
			p.byStage[metric] += s.count
		}
	}
	return nil
}

// profile is the part of a pprof profile the ledger needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, inlined first
	funcName map[uint64]string
}

type sample struct {
	locs  []uint64
	count int64
}

// decodeProfile parses the subset of profile.proto the ledger reads:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s sample
			var values []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						values = append(values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			p.samples = append(p.samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			p.locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2 (string-table index)
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
			funcNameIdx[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// the field was encoded unpacked (b nil), all of b's when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
