package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"sync"

	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// WriteV3 serialises the corpus as a snapshot: the sharded columnar
// payloads followed by the five point-lookup index sections. Validation
// statuses are not persisted (run Validate after loading). It is
// StreamCorpus at the default memory budget, so a corpus whose encoder
// state fits the budget is encoded without touching the file system, and
// its output is byte-identical at any opt.Workers value.
func WriteV3(w io.Writer, c *scanstore.Corpus, opt Options) error {
	return StreamCorpus(w, c, opt, StreamWriterConfig{})
}

// encodeCertShard lays out the three certificate columns: uvarint DER
// lengths, the concatenated DER bytes, 32-byte digests.
func encodeCertShard(lens []uint32, ders []byte, fps []x509lite.Fingerprint) []byte {
	size := len(ders) + 32*len(fps)
	for _, l := range lens {
		size += uvarintLen(uint64(l))
	}
	out := make([]byte, 0, size)
	for _, l := range lens {
		out = binary.AppendUvarint(out, uint64(l))
	}
	out = append(out, ders...)
	for _, fp := range fps {
		out = append(out, fp[:]...)
	}
	return out
}

// encodeScanShard lays out the scan metadata column followed by the
// certificate-ID and IP delta columns. Deltas restart from a zero base at
// each scan boundary (the writer's columns do this as they accumulate) so
// shards, and scans, decode independently.
func encodeScanShard(meta []scanMeta, cols []*scanCols) ([]byte, error) {
	size := 0
	for _, c := range cols {
		size += int(c.cert.Len() + c.ip.Len())
	}
	out := make([]byte, 0, size+len(meta)*4*binary.MaxVarintLen64)
	prevSec := int64(0)
	for i, s := range meta {
		out = binary.AppendUvarint(out, uint64(s.op))
		sec := s.at.Unix()
		if i == 0 {
			out = binary.AppendVarint(out, sec)
		} else {
			out = binary.AppendVarint(out, sec-prevSec)
		}
		prevSec = sec
		out = binary.AppendUvarint(out, uint64(s.at.Nanosecond()))
		out = binary.AppendUvarint(out, s.count)
	}
	buf := bytes.NewBuffer(out)
	for _, c := range cols {
		if err := c.cert.VerifyCopy(buf); err != nil {
			return nil, err
		}
	}
	for _, c := range cols {
		if err := c.ip.VerifyCopy(buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// gzipWriters recycles shard compressors: a flate writer's state is far
// larger than a typical shard, and Reset yields the same stream as a new
// writer.
var gzipWriters sync.Pool

func gzipShard(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(raw)/2 + 64)
	zw, _ := gzipWriters.Get().(*gzip.Writer)
	if zw == nil {
		var err error
		if zw, err = gzip.NewWriterLevel(&buf, shardCompression); err != nil {
			return nil, err
		}
	} else {
		zw.Reset(&buf)
	}
	defer gzipWriters.Put(zw)
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func putU64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
