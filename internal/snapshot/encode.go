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

// appendLenCol appends the certificate shard's first column, the uvarint
// DER lengths.
func appendLenCol(dst []byte, ders [][]byte) []byte {
	for _, der := range ders {
		dst = binary.AppendUvarint(dst, uint64(len(der)))
	}
	return dst
}

// writeCertShard writes a certificate shard's three columns to w: the
// uvarint DER lengths (lenCol), the DER bytes in order, 32-byte digests.
func writeCertShard(w io.Writer, lenCol []byte, ders [][]byte, fps []x509lite.Fingerprint) error {
	if _, err := w.Write(lenCol); err != nil {
		return err
	}
	for _, der := range ders {
		if _, err := w.Write(der); err != nil {
			return err
		}
	}
	for i := range fps {
		if _, err := w.Write(fps[i][:]); err != nil {
			return err
		}
	}
	return nil
}

// appendScanMeta appends a scan shard's metadata column, which precedes the
// certificate-ID and IP delta columns of its scans. Deltas restart from a
// zero base at each scan boundary (the writer's columns do this as they
// accumulate) so shards, and scans, decode independently.
func appendScanMeta(dst []byte, meta []scanMeta) []byte {
	prevSec := int64(0)
	for i, s := range meta {
		dst = binary.AppendUvarint(dst, uint64(s.op))
		sec := s.at.Unix()
		if i == 0 {
			dst = binary.AppendVarint(dst, sec)
		} else {
			dst = binary.AppendVarint(dst, sec-prevSec)
		}
		prevSec = sec
		dst = binary.AppendUvarint(dst, uint64(s.at.Nanosecond()))
		dst = binary.AppendUvarint(dst, s.count)
	}
	return dst
}

// compBlock is the size of the blocks a shard's compressed bytes land in.
const compBlock = 64 << 10

// blockWriter keeps what is written to it in compBlock-byte blocks, so
// output of unknown length is never copied to grow a buffer.
type blockWriter struct{ blocks [][]byte }

func (bw *blockWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := len(bw.blocks) - 1
		if k < 0 || len(bw.blocks[k]) == cap(bw.blocks[k]) {
			bw.blocks = append(bw.blocks, make([]byte, 0, compBlock))
			k++
		}
		b := bw.blocks[k]
		m := copy(b[len(b):cap(b)], p)
		bw.blocks[k] = b[:len(b)+m]
		p = p[m:]
	}
	return n, nil
}

// gzipWriters recycles shard compressors: a flate writer's state is far
// larger than a typical shard, and Reset yields the same stream as a new
// writer.
var gzipWriters sync.Pool

// gzipShard compresses the raw shard bytes that write produces into blocks:
// full compBlock-byte blocks and a last one cut to its length, so a landed
// shard holds no spare room.
func gzipShard(write func(io.Writer) error) ([][]byte, error) {
	var out blockWriter
	zw, _ := gzipWriters.Get().(*gzip.Writer)
	if zw == nil {
		var err error
		if zw, err = gzip.NewWriterLevel(&out, shardCompression); err != nil {
			return nil, err
		}
	} else {
		zw.Reset(&out)
	}
	defer func() {
		zw.Reset(nil) // a pooled compressor must not keep the blocks alive
		gzipWriters.Put(zw)
	}()
	if err := write(zw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	if k := len(out.blocks) - 1; k >= 0 && len(out.blocks[k]) < compBlock {
		out.blocks[k] = bytes.Clone(out.blocks[k])
	}
	return out.blocks, nil
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
