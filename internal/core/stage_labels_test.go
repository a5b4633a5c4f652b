package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"testing"
)

// Every stage tags its goroutine, and the goroutines it fans out to, with
// the profiler label stage=<span name>, so a CPU profile of a build splits
// by stage.
func TestStageLabelsInCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("another CPU profile is running: %v", err)
	}
	_, err := Run(SmallConfig())
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	stages, err := profileLabelValues(buf.Bytes(), "stage")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.scan", "core.validate"} {
		if !stages[want] {
			t.Errorf("no CPU sample labelled stage=%s; labelled stages %v", want, stages)
		}
	}
}

// profileLabelValues decodes a gzipped pprof profile just far enough to
// collect the values its samples carry under one label key: the string
// table (Profile field 6) and every sample's (field 2) labels (Sample field
// 3), whose key and str (Label fields 1 and 2) index that table.
func profileLabelValues(gz []byte, key string) (map[string]bool, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strtab []string
	var pairs [][2]uint64 // (key, str) string-table indexes
	err = eachField(raw, func(field int, val uint64, msg []byte) error {
		switch field {
		case 6:
			strtab = append(strtab, string(msg))
		case 2:
			return eachField(msg, func(field int, _ uint64, label []byte) error {
				if field != 3 {
					return nil
				}
				var pair [2]uint64
				err := eachField(label, func(field int, v uint64, _ []byte) error {
					if field == 1 || field == 2 {
						pair[field-1] = v
					}
					return nil
				})
				pairs = append(pairs, pair)
				return err
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	values := make(map[string]bool)
	for _, p := range pairs {
		if p[0] >= uint64(len(strtab)) || p[1] >= uint64(len(strtab)) {
			return nil, fmt.Errorf("label indexes %v outside a %d-string table", p, len(strtab))
		}
		if strtab[p[0]] == key {
			values[strtab[p[1]]] = true
		}
	}
	return values, nil
}

// eachField walks one protobuf message, handing fn each field's number and
// either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, val uint64, msg []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field tag")
		}
		b = b[n:]
		var val uint64
		var msg []byte
		switch tag & 7 {
		case 0:
			if val, n = binary.Uvarint(b); n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if tag&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return fmt.Errorf("truncated fixed field")
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length-delimited field")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", tag&7)
		}
		if err := fn(int(tag>>3), val, msg); err != nil {
			return err
		}
	}
	return nil
}
