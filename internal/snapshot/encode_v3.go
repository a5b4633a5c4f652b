package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"securepki/internal/extsort"
	"securepki/internal/netsim"
	"securepki/internal/parallel"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// sectionBuilder is the one builder of the v3 index sections. It is fed per
// certificate (fingerprint and SPKI as the certificate is added, DER
// location once its shard is laid out), per scan (operator and time) and per
// sighting (scan, IP, certificate, and the IP's AS when there is a network
// view), and emits the five sections in the format's total orders. The
// StreamWriter feeds it as a corpus streams in; Read feeds it from a
// decoded corpus and compares the rebuilt sections with the file's.
type sectionBuilder struct {
	fps, spkis []x509lite.Fingerprint // CertID order
	locs       []derLoc               // CertID order, one shard at a time
	scans      []scanMeta             // ScanID order

	asOf func(ip netsim.IP, at time.Time) (asn int, ok bool)
	ips  *extsort.Sorter[ipRec] // nil once the StreamWriter releases it
	ases *extsort.Sorter[asRec] // nil: no AS view, or released
}

// derLoc is where a certificate's DER lives: its shard, offset into the
// uncompressed payload, and length.
type derLoc struct{ shard, off, dlen uint32 }

// scanMeta is one scan's metadata-section row.
type scanMeta struct {
	op    scanstore.Operator
	at    time.Time
	count uint64
}

// ipRec and asRec are the sorter records behind the IP and AS sections,
// encoded big-endian so byte order is (ip, scan, cert) and (asn, cert)
// order. They carry CertIDs: the fingerprint order that postings reference
// is only known once every certificate is in.
type ipRec struct{ ip, scan, cert uint32 }
type asRec struct{ asn, cert uint32 }

// newSectionBuilder returns an empty builder. It keeps (scan, IP, cert)
// records for the IP section, plus (AS, cert) records when asOf is non-nil,
// in sorters that each buffer up to budget bytes of records, sorted in
// place, before spilling runs to dir.
func newSectionBuilder(asOf func(netsim.IP, time.Time) (int, bool), budget int64, dir string) (*sectionBuilder, error) {
	b := &sectionBuilder{}
	var err error
	b.ips, err = extsort.NewSorter(extsort.Config[ipRec]{
		Size: 12,
		Encode: func(dst []byte, r ipRec) {
			binary.BigEndian.PutUint32(dst, r.ip)
			binary.BigEndian.PutUint32(dst[4:], r.scan)
			binary.BigEndian.PutUint32(dst[8:], r.cert)
		},
		Decode: func(src []byte) ipRec {
			return ipRec{
				ip:   binary.BigEndian.Uint32(src),
				scan: binary.BigEndian.Uint32(src[4:]),
				cert: binary.BigEndian.Uint32(src[8:]),
			}
		},
		MemBudget: budget,
		Dir:       dir,
	})
	if err != nil || asOf == nil {
		return b, err
	}
	b.asOf = asOf
	b.ases, err = extsort.NewSorter(extsort.Config[asRec]{
		Size: 8,
		Encode: func(dst []byte, r asRec) {
			binary.BigEndian.PutUint32(dst, r.asn)
			binary.BigEndian.PutUint32(dst[4:], r.cert)
		},
		Decode: func(src []byte) asRec {
			return asRec{asn: binary.BigEndian.Uint32(src), cert: binary.BigEndian.Uint32(src[4:])}
		},
		MemBudget: budget,
		Dir:       dir,
	})
	return b, err
}

// addCert appends the next certificate in CertID order.
func (b *sectionBuilder) addCert(fp, spki x509lite.Fingerprint) {
	b.fps = append(b.fps, fp)
	b.spkis = append(b.spkis, spki)
}

// reserve sizes the per-certificate arrays for certs certificates and the
// sighting sorters for as many sightings.
func (b *sectionBuilder) reserve(certs, sightings int) {
	b.fps = slices.Grow(b.fps, certs)
	b.spkis = slices.Grow(b.spkis, certs)
	b.locs = slices.Grow(b.locs, certs)
	b.ips.Grow(sightings)
	if b.ases != nil {
		b.ases.Grow(sightings)
	}
}

// placeShard locates the next certificate shard's DERs, given in CertID
// order, and returns the length of the shard's uvarint length column, which
// precedes the DER bytes (writeCertShard's layout), and of the DER bytes.
func (b *sectionBuilder) placeShard(shard uint32, ders [][]byte) (lenColLen, derLen int) {
	off := uint32(0)
	for _, der := range ders {
		off += uint32(uvarintLen(uint64(len(der))))
	}
	lenColLen = int(off)
	for _, der := range ders {
		b.locs = append(b.locs, derLoc{shard: shard, off: off, dlen: uint32(len(der))})
		off += uint32(len(der))
	}
	return lenColLen, int(off) - lenColLen
}

// beginScan opens the next scan; sightings that follow belong to it.
func (b *sectionBuilder) beginScan(op scanstore.Operator, at time.Time) {
	b.scans = append(b.scans, scanMeta{op: op, at: at})
}

// addSighting records one observation of cert at ip in the current scan.
func (b *sectionBuilder) addSighting(ip netsim.IP, cert scanstore.CertID) error {
	scan := len(b.scans) - 1
	b.scans[scan].count++
	if err := b.ips.Add(ipRec{ip: uint32(ip), scan: uint32(scan), cert: uint32(cert)}); err != nil {
		return err
	}
	if b.ases == nil {
		return nil
	}
	asn, ok := b.asOf(ip, b.scans[scan].at)
	if !ok {
		return nil
	}
	if asn < 0 || int64(asn) > math.MaxUint32 {
		return fmt.Errorf("snapshot: AS number %d outside uint32", asn)
	}
	return b.ases.Add(asRec{asn: uint32(asn), cert: uint32(cert)})
}

// fanIn reports the widest k-way merge build will perform.
func (b *sectionBuilder) fanIn() int {
	n := 0
	if b.ips != nil {
		n = b.ips.FanIn()
	}
	if b.ases != nil && b.ases.FanIn() > n {
		n = b.ases.FanIn()
	}
	return n
}

// spilledBytes reports how many bytes the sorters' spilled runs hold.
func (b *sectionBuilder) spilledBytes() int64 {
	var n int64
	if b.ips != nil {
		n = b.ips.SpilledBytes()
	}
	if b.ases != nil {
		n += b.ases.SpilledBytes()
	}
	return n
}

// close releases the sorters' runs.
func (b *sectionBuilder) close() error {
	var err error
	if b.ips != nil {
		err = b.ips.Close()
	}
	if b.ases != nil {
		if cerr := b.ases.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// sectionOut receives one section's key array and posting array.
type sectionOut struct{ keys, post io.Writer }

// build writes the five sections' key and posting arrays to out. Every
// certificate must have been placed, each fingerprint once: a repeat, which
// the fingerprint sort puts next to its first, is an error. Postings
// reference certificates by their position in the fingerprint-sorted key
// array; with that order fixed, the IP section builds concurrently with the
// others when workers allows. Output is identical at any worker count.
func (b *sectionBuilder) build(workers int, out [V3SectionCount]sectionOut) error {
	if len(b.locs) != len(b.fps) {
		return fmt.Errorf("snapshot: %d of %d certificates placed in shards", len(b.locs), len(b.fps))
	}
	order := make([]uint32, len(b.fps))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return bytes.Compare(b.fps[x][:], b.fps[y][:]) })
	refOf := make([]uint32, len(order))
	fp := newSecWriter(out[0].keys)
	for pos, id := range order {
		if pos > 0 {
			if prev := order[pos-1]; b.fps[prev] == b.fps[id] {
				return fmt.Errorf("snapshot: certificates %d and %d share a fingerprint", min(prev, id), max(prev, id))
			}
		}
		refOf[id] = uint32(pos)
		l := b.locs[id]
		e := fp.entry(V3FPEntry)
		copy(e, b.fps[id][:])
		putU32s(e[32:], l.shard, l.off, l.dlen, 0)
	}
	if err := fp.flush(); err != nil {
		return err
	}

	var ipErr error
	ipDone := make(chan struct{})
	buildIP := func() {
		defer close(ipDone)
		ipErr = b.buildIP(refOf, out[2])
	}
	if parallel.Workers(workers) > 1 {
		go buildIP()
	} else {
		buildIP()
	}
	err := b.buildSPKI(order, refOf, out[1])
	if err == nil {
		err = b.buildAS(refOf, out[3])
	}
	if err == nil {
		err = b.buildScanMeta(out[4])
	}
	<-ipDone
	if err == nil {
		err = ipErr
	}
	return err
}

// buildSPKI emits SPKI → cert set, ordered by (spki, ref) — a total order,
// since refs are unique. It re-sorts order, the CertIDs by fingerprint.
func (b *sectionBuilder) buildSPKI(order, refOf []uint32, out sectionOut) error {
	slices.SortFunc(order, func(x, y uint32) int {
		if c := bytes.Compare(b.spkis[x][:], b.spkis[y][:]); c != 0 {
			return c
		}
		return int(refOf[x]) - int(refOf[y])
	})
	keys, post := newSecWriter(out.keys), newSecWriter(out.post)
	for lo := 0; lo < len(order); {
		hi := lo
		for hi < len(order) && b.spkis[order[hi]] == b.spkis[order[lo]] {
			hi++
		}
		e := keys.entry(V3SPKIEntry)
		copy(e, b.spkis[order[lo]][:])
		putU32s(e[32:], uint32(lo), uint32(hi-lo))
		for _, id := range order[lo:hi] {
			putU32s(post.entry(4), refOf[id])
		}
		lo = hi
	}
	return flushBoth(keys, post)
}

// buildIP drains the (ip, scan, cert) sorter into IP → sightings: per IP,
// its distinct (scan, ref) pairs ascending. Refs follow fingerprint order,
// not CertID order, so each (ip, scan) run's refs are sorted on the way out;
// a run is the handful of certificates one address served in one scan.
func (b *sectionBuilder) buildIP(refOf []uint32, out sectionOut) error {
	keys, post := newSecWriter(out.keys), newSecWriter(out.post)
	var run []uint32    // refs of the current (ip, scan) run
	var cur, prev ipRec // the current run's key; the last record taken
	var start, elems uint32
	flushRun := func() {
		if len(run) > 1 {
			slices.Sort(run)
		}
		for _, ref := range run {
			putU32s(post.entry(8), cur.scan, ref)
		}
		elems += uint32(len(run))
		run = run[:0]
	}
	flushIP := func() {
		putU32s(keys.entry(V3IPEntry), cur.ip, start, elems-start, 0)
		start = elems
	}
	first := true
	err := b.ips.Merge(func(r ipRec) error {
		switch {
		case first:
			cur, first = r, false
		case r == prev:
			return nil // repeat sighting of the same (scan, cert) at this IP
		case r.ip != cur.ip:
			flushRun()
			flushIP()
			cur = r
		case r.scan != cur.scan:
			flushRun()
			cur = r
		}
		prev = r
		run = append(run, refOf[r.cert])
		return nil
	})
	if err != nil {
		return err
	}
	if !first {
		flushRun()
		flushIP()
	}
	return flushBoth(keys, post)
}

// buildAS drains the (asn, cert) sorter into AS → cert set: per AS, its
// distinct refs ascending. Without an AS view the section is empty, never
// wrong.
func (b *sectionBuilder) buildAS(refOf []uint32, out sectionOut) error {
	if b.ases == nil {
		return nil
	}
	keys, post := newSecWriter(out.keys), newSecWriter(out.post)
	var run []uint32
	var cur, prev asRec
	var start uint32
	flushAS := func() {
		slices.Sort(run)
		for _, ref := range run {
			putU32s(post.entry(4), ref)
		}
		putU32s(keys.entry(V3ASEntry), cur.asn, start, uint32(len(run)), 0)
		start += uint32(len(run))
		run = run[:0]
	}
	first := true
	err := b.ases.Merge(func(r asRec) error {
		switch {
		case first:
			cur, first = r, false
		case r == prev:
			return nil
		case r.asn != cur.asn:
			flushAS()
			cur = r
		}
		prev = r
		run = append(run, refOf[r.cert])
		return nil
	})
	if err != nil {
		return err
	}
	if !first {
		flushAS()
	}
	return flushBoth(keys, post)
}

// buildScanMeta emits the scan metadata, in scan-ID order.
func (b *sectionBuilder) buildScanMeta(out sectionOut) error {
	keys := newSecWriter(out.keys)
	for _, s := range b.scans {
		e := keys.entry(V3ScanMetaEntry)
		putU32s(e, uint32(s.op), uint32(s.at.Nanosecond()))
		binary.LittleEndian.PutUint64(e[8:], uint64(s.at.Unix()))
		putU32s(e[16:], uint32(s.count), 0)
	}
	return keys.flush()
}

// secWriter batches a section array's little-endian words on their way to
// w 4 KiB at a time: w is a spill, which buffers on its own, or Read's check
// against the file's bytes.
type secWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newSecWriter(w io.Writer) *secWriter {
	return &secWriter{w: w, buf: make([]byte, 0, 4<<10)}
}

// entry returns the batch's next n bytes for the caller to fill completely.
func (s *secWriter) entry(n int) []byte {
	if len(s.buf)+n > cap(s.buf) {
		s.flush()
	}
	s.buf = s.buf[:len(s.buf)+n]
	return s.buf[len(s.buf)-n:]
}

// flush writes the batch out and reports the first write error.
func (s *secWriter) flush() error {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.err
}

func flushBoth(keys, post *secWriter) error {
	if err := keys.flush(); err != nil {
		return err
	}
	return post.flush()
}

// putU32s writes vs into dst as consecutive little-endian words.
func putU32s(dst []byte, vs ...uint32) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], v)
	}
}
