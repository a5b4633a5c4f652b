package snapshot

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"time"

	"securepki/internal/extsort"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// StreamWriter emits a v2 or v3 snapshot without a resident corpus. Certs
// and observations arrive incrementally — Intern as certificates are first
// seen (in global scan-major order), AddObs per sighting — and everything
// bulky transits disk: cert shards compress straight into a checksummed
// payload spill as every CertsPerShard-th certificate arrives, per-scan
// observation columns overflow to spill files past a small threshold, and
// the v3 IP/AS postings accumulate in external-merge sorters. What stays
// resident is per-certificate constant-size state (fingerprint, SPKI,
// DER location — needed by the v3 index anyway) and the fingerprint dedup
// map.
//
// The output is byte-identical to Write/WriteV3 over the equivalent corpus:
// shard boundaries come from the same sizing knobs, gzip sees the same raw
// byte stream (chunked writes change no deflate output), and every v3
// section is emitted in the same total order the in-memory builder sorts
// into. The streaming goldens in core pin this equivalence.
type StreamWriter struct {
	opt Options
	cfg StreamWriterConfig

	// Resident per-certificate state, CertID order.
	fps   []x509lite.Fingerprint
	spkis []x509lite.Fingerprint
	locs  []fpLoc
	byFP  map[x509lite.Fingerprint]scanstore.CertID

	pendDER  [][]byte // current cert shard's DERs
	payload  *extsort.SpillFile
	shardTab []streamShardEntry

	scans []*streamScan
	cur   *streamScan

	ipSort *extsort.Sorter[ipRec]
	asSort *extsort.Sorter[asRec]

	derSpill *extsort.SpillFile

	err error
}

// StreamWriterConfig sizes the writer's memory envelope.
type StreamWriterConfig struct {
	// SpillDir hosts the payload, column and sorter spills ("" = OS temp).
	SpillDir string
	// MemBudget bounds the IP/AS sorter buffers (<= 0 means
	// extsort.DefaultMemBudget, split between them).
	MemBudget int64
	// V3 selects the indexed format; Finish then writes MagicV3 plus the
	// five index sections. Off, Finish writes plain v2.
	V3 bool
	// KeepDERs retains a spill of every interned DER so EachCert can replay
	// the certificate table after Finish (the lint pass needs this).
	KeepDERs bool
}

// streamShardEntry is one shard-table row accumulated as payloads flush.
type streamShardEntry struct {
	first, count int
	rawLen, cLen int64
	sum          [32]byte
}

// streamScan is one scan's accumulating state: metadata plus the two
// delta-encoded observation columns.
type streamScan struct {
	op      scanstore.Operator
	at      time.Time
	count   uint64
	prevC   int64
	prevIP  int64
	certCol *spillColumn
	ipCol   *spillColumn
}

// ipRec and asRec are the external-sort records behind the v3 IP and AS
// sections. Order includes the cert ID so duplicates land adjacent; the
// final ref order is recovered per group at merge time.
type ipRec struct{ ip, scan, cert uint32 }
type asRec struct{ asn, cert uint32 }

// NewStreamWriter prepares an empty streaming writer.
func NewStreamWriter(opt Options, cfg StreamWriterConfig) (*StreamWriter, error) {
	opt = opt.withDefaults()
	sw := &StreamWriter{opt: opt, cfg: cfg, byFP: make(map[x509lite.Fingerprint]scanstore.CertID)}
	var err error
	if sw.payload, err = extsort.NewSpillFile(cfg.SpillDir, "snapshot-payload-*.spill"); err != nil {
		return nil, err
	}
	if cfg.KeepDERs {
		if sw.derSpill, err = extsort.NewSpillFile(cfg.SpillDir, "snapshot-ders-*.spill"); err != nil {
			sw.Close()
			return nil, err
		}
	}
	if cfg.V3 {
		budget := cfg.MemBudget
		if budget <= 0 {
			budget = extsort.DefaultMemBudget
		}
		sw.ipSort, err = extsort.NewSorter(extsort.Config[ipRec]{
			Size: 12,
			Encode: func(dst []byte, r ipRec) {
				binary.LittleEndian.PutUint32(dst, r.ip)
				binary.LittleEndian.PutUint32(dst[4:], r.scan)
				binary.LittleEndian.PutUint32(dst[8:], r.cert)
			},
			Decode: func(src []byte) ipRec {
				return ipRec{
					ip:   binary.LittleEndian.Uint32(src),
					scan: binary.LittleEndian.Uint32(src[4:]),
					cert: binary.LittleEndian.Uint32(src[8:]),
				}
			},
			Less: func(a, b ipRec) bool {
				if a.ip != b.ip {
					return a.ip < b.ip
				}
				if a.scan != b.scan {
					return a.scan < b.scan
				}
				return a.cert < b.cert
			},
			MemBudget: budget / 4,
			Dir:       cfg.SpillDir,
		})
		if err != nil {
			sw.Close()
			return nil, err
		}
		if opt.ASOf != nil {
			sw.asSort, err = extsort.NewSorter(extsort.Config[asRec]{
				Size: 8,
				Encode: func(dst []byte, r asRec) {
					binary.LittleEndian.PutUint32(dst, r.asn)
					binary.LittleEndian.PutUint32(dst[4:], r.cert)
				},
				Decode: func(src []byte) asRec {
					return asRec{asn: binary.LittleEndian.Uint32(src), cert: binary.LittleEndian.Uint32(src[4:])}
				},
				Less: func(a, b asRec) bool {
					if a.asn != b.asn {
						return a.asn < b.asn
					}
					return a.cert < b.cert
				},
				MemBudget: budget / 4,
				Dir:       cfg.SpillDir,
			})
			if err != nil {
				sw.Close()
				return nil, err
			}
		}
	}
	return sw, nil
}

// NumCerts returns how many distinct certificates have been interned.
func (sw *StreamWriter) NumCerts() int { return len(sw.fps) }

// Lookup returns the ID of an already-interned fingerprint.
func (sw *StreamWriter) Lookup(fp x509lite.Fingerprint) (scanstore.CertID, bool) {
	id, ok := sw.byFP[fp]
	return id, ok
}

// Intern deduplicates one certificate by fingerprint, appending it to the
// table (and the pending cert shard) when new. The DER is copied; callers
// may reuse the buffer. Returns the ID and whether the cert was new.
func (sw *StreamWriter) Intern(der []byte, fp, spki x509lite.Fingerprint) (scanstore.CertID, bool, error) {
	if sw.err != nil {
		return 0, false, sw.err
	}
	if id, ok := sw.byFP[fp]; ok {
		return id, false, nil
	}
	if len(der) == 0 || len(der) > MaxCertDER {
		return 0, false, sw.fail(fmt.Errorf("snapshot: cert %d DER length %d outside (0, %d]", len(sw.fps), len(der), MaxCertDER))
	}
	if len(sw.fps) >= maxCerts {
		return 0, false, sw.fail(fmt.Errorf("snapshot: %d certificates exceed format cap", len(sw.fps)+1))
	}
	id := scanstore.CertID(len(sw.fps))
	sw.byFP[fp] = id
	sw.fps = append(sw.fps, fp)
	sw.spkis = append(sw.spkis, spki)
	sw.pendDER = append(sw.pendDER, append([]byte(nil), der...))
	if sw.derSpill != nil {
		var head [68]byte
		copy(head[:32], fp[:])
		copy(head[32:64], spki[:])
		binary.LittleEndian.PutUint32(head[64:], uint32(len(der)))
		if _, err := sw.derSpill.Write(head[:]); err != nil {
			return 0, false, sw.fail(err)
		}
		if _, err := sw.derSpill.Write(der); err != nil {
			return 0, false, sw.fail(err)
		}
	}
	if len(sw.pendDER) >= sw.opt.CertsPerShard {
		if err := sw.flushCertShard(); err != nil {
			return 0, false, sw.fail(err)
		}
	}
	return id, true, nil
}

// BeginScan opens the next scan (chronological, like Corpus.AddScan); all
// following AddObs calls belong to it.
func (sw *StreamWriter) BeginScan(op scanstore.Operator, at time.Time) error {
	if sw.err != nil {
		return sw.err
	}
	if len(sw.scans) >= maxScans {
		return sw.fail(fmt.Errorf("snapshot: %d scans exceed format cap", len(sw.scans)+1))
	}
	if int64(op) < 0 || int64(op) > 1<<20 {
		return sw.fail(fmt.Errorf("snapshot: scan %d operator %d outside format range", len(sw.scans), op))
	}
	if n := len(sw.scans); n > 0 && at.Before(sw.scans[n-1].at) {
		return sw.fail(fmt.Errorf("snapshot: scan at %v begun after %v", at, sw.scans[n-1].at))
	}
	s := &streamScan{
		op: op, at: at,
		certCol: newSpillColumn(sw.cfg.SpillDir),
		ipCol:   newSpillColumn(sw.cfg.SpillDir),
	}
	sw.scans = append(sw.scans, s)
	sw.cur = s
	return nil
}

// AddObs records one sighting of an interned certificate in the current
// scan. Sightings must arrive in the corpus's observation order (global
// host order) for byte equivalence with the in-memory writer.
func (sw *StreamWriter) AddObs(id scanstore.CertID, ip netsim.IP) error {
	if sw.err != nil {
		return sw.err
	}
	s := sw.cur
	if s == nil {
		return sw.fail(fmt.Errorf("snapshot: AddObs before BeginScan"))
	}
	if int(id) < 0 || int(id) >= len(sw.fps) {
		return sw.fail(fmt.Errorf("snapshot: observation of unknown cert %d", id))
	}
	if s.count >= math.MaxUint32 {
		return sw.fail(fmt.Errorf("snapshot: scan %d has %d observations, cap %d", len(sw.scans)-1, s.count+1, uint32(math.MaxUint32)))
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], int64(id)-s.prevC)
	if err := s.certCol.append(tmp[:n]); err != nil {
		return sw.fail(err)
	}
	s.prevC = int64(id)
	n = binary.PutVarint(tmp[:], int64(ip)-s.prevIP)
	if err := s.ipCol.append(tmp[:n]); err != nil {
		return sw.fail(err)
	}
	s.prevIP = int64(ip)
	s.count++

	if sw.ipSort != nil {
		scan := uint32(len(sw.scans) - 1)
		if err := sw.ipSort.Add(ipRec{ip: uint32(ip), scan: scan, cert: uint32(id)}); err != nil {
			return sw.fail(err)
		}
		if sw.asSort != nil {
			if asn, ok := sw.opt.ASOf(ip, s.at); ok {
				if asn < 0 || int64(asn) > math.MaxUint32 {
					return sw.fail(fmt.Errorf("snapshot: AS number %d outside uint32", asn))
				}
				if err := sw.asSort.Add(asRec{asn: uint32(asn), cert: uint32(id)}); err != nil {
					return sw.fail(err)
				}
			}
		}
	}
	return nil
}

// MergeFanIn reports the widest k-way merge Finish will perform across the
// index sorters (0 when the writer has no v3 sorters).
func (sw *StreamWriter) MergeFanIn() int {
	n := 0
	if sw.ipSort != nil && sw.ipSort.FanIn() > n {
		n = sw.ipSort.FanIn()
	}
	if sw.asSort != nil && sw.asSort.FanIn() > n {
		n = sw.asSort.FanIn()
	}
	return n
}

func (sw *StreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// flushCertShard compresses the pending certificate shard straight into the
// payload spill, recording its table entry and the per-cert DER locations
// the v3 fingerprint index needs.
func (sw *StreamWriter) flushCertShard() error {
	if len(sw.pendDER) == 0 {
		return nil
	}
	shard := len(sw.shardTab)
	first := len(sw.fps) - len(sw.pendDER)

	// DER locations replay the shard layout: the uvarint length column
	// precedes the concatenated DER bytes.
	off := 0
	for _, der := range sw.pendDER {
		off += uvarintLen(uint64(len(der)))
	}
	for j, der := range sw.pendDER {
		sw.locs = append(sw.locs, fpLoc{
			fp:    sw.fps[first+j],
			shard: uint32(shard),
			off:   uint32(off),
			dlen:  uint32(len(der)),
		})
		off += len(der)
	}

	fw := newFlushWriter(sw.payload)
	zw, err := gzip.NewWriterLevel(fw, shardCompression)
	if err != nil {
		return err
	}
	raw := int64(0)
	write := func(p []byte) error {
		if err != nil {
			return err
		}
		_, err = zw.Write(p)
		raw += int64(len(p))
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, der := range sw.pendDER {
		if err := write(tmp[:binary.PutUvarint(tmp[:], uint64(len(der)))]); err != nil {
			return err
		}
	}
	for _, der := range sw.pendDER {
		if err := write(der); err != nil {
			return err
		}
	}
	for j := range sw.pendDER {
		if err := write(sw.fps[first+j][:]); err != nil {
			return err
		}
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if fw.err != nil {
		return fw.err
	}
	sw.shardTab = append(sw.shardTab, streamShardEntry{
		first: first, count: len(sw.pendDER),
		rawLen: raw, cLen: fw.n, sum: fw.sum(),
	})
	sw.pendDER = sw.pendDER[:0]
	return nil
}

// flushScanShards assembles the scan shards (groups of ScansPerShard) from
// the per-scan columns, compressing each into the payload spill after the
// cert shards — the same payload order the in-memory writer produces.
func (sw *StreamWriter) flushScanShards() error {
	var tmp [binary.MaxVarintLen64]byte
	for lo := 0; lo < len(sw.scans); lo += sw.opt.ScansPerShard {
		hi := lo + sw.opt.ScansPerShard
		if hi > len(sw.scans) {
			hi = len(sw.scans)
		}
		fw := newFlushWriter(sw.payload)
		zw, err := gzip.NewWriterLevel(fw, shardCompression)
		if err != nil {
			return err
		}
		raw := int64(0)
		write := func(p []byte) error {
			if err != nil {
				return err
			}
			_, err = zw.Write(p)
			raw += int64(len(p))
			return err
		}
		prevSec := int64(0)
		for i, s := range sw.scans[lo:hi] {
			if err := write(tmp[:binary.PutUvarint(tmp[:], uint64(s.op))]); err != nil {
				return err
			}
			sec := s.at.Unix()
			delta := sec
			if i > 0 {
				delta = sec - prevSec
			}
			prevSec = sec
			if err := write(tmp[:binary.PutVarint(tmp[:], delta)]); err != nil {
				return err
			}
			if err := write(tmp[:binary.PutUvarint(tmp[:], uint64(s.at.Nanosecond()))]); err != nil {
				return err
			}
			if err := write(tmp[:binary.PutUvarint(tmp[:], s.count)]); err != nil {
				return err
			}
		}
		cw := &countWriter{w: zw}
		for _, s := range sw.scans[lo:hi] {
			if err := s.certCol.drain(cw); err != nil {
				return err
			}
		}
		for _, s := range sw.scans[lo:hi] {
			if err := s.ipCol.drain(cw); err != nil {
				return err
			}
		}
		raw += cw.n
		if err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		if fw.err != nil {
			return fw.err
		}
		sw.shardTab = append(sw.shardTab, streamShardEntry{
			first: lo, count: hi - lo,
			rawLen: raw, cLen: fw.n, sum: fw.sum(),
		})
	}
	return nil
}

// Finish flushes everything and writes the complete snapshot to w. The
// writer remains readable (EachCert) but accepts no further data.
func (sw *StreamWriter) Finish(w io.Writer) error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.flushCertShard(); err != nil {
		return sw.fail(err)
	}
	nCertShards := len(sw.shardTab)
	if err := sw.flushScanShards(); err != nil {
		return sw.fail(err)
	}
	if len(sw.shardTab) > maxShards {
		return sw.fail(fmt.Errorf("snapshot: %d shards exceed format cap %d; raise CertsPerShard/ScansPerShard",
			len(sw.shardTab), maxShards))
	}
	var obsCount uint64
	for _, s := range sw.scans {
		obsCount += s.count
	}

	var sections [V3SectionCount]v3SectionData
	var ipPost, asPost *spillColumn
	if sw.cfg.V3 {
		var err error
		if sections, ipPost, asPost, err = sw.buildSections(); err != nil {
			return sw.fail(err)
		}
		defer ipPost.close()
		defer asPost.close()
	}

	var head bytes.Buffer
	if sw.cfg.V3 {
		head.WriteString(MagicV3)
	} else {
		head.WriteString(Magic)
	}
	putU64(&head, uint64(len(sw.fps)))
	putU64(&head, uint64(len(sw.scans)))
	putU64(&head, obsCount)
	putU32(&head, uint32(nCertShards))
	putU32(&head, uint32(len(sw.shardTab)-nCertShards))
	if sw.cfg.V3 {
		putU32(&head, V3SectionCount)
		putU32(&head, 0) // reserved
	}
	for _, sh := range sw.shardTab {
		putU64(&head, uint64(sh.first))
		putU64(&head, uint64(sh.count))
		putU64(&head, uint64(sh.rawLen))
		putU64(&head, uint64(sh.cLen))
		head.Write(sh.sum[:])
	}
	if sw.cfg.V3 {
		for i, s := range sections {
			putU32(&head, s.kind)
			putU32(&head, v3EntrySize(s.kind))
			putU64(&head, s.keyCount)
			postLen := int64(len(s.post))
			var sum [32]byte
			switch i {
			case 2, 3: // IP and AS postings live in spill columns
				sp := ipPost
				if i == 3 {
					sp = asPost
				}
				postLen = sp.len()
				h := sha256.New()
				h.Write(s.keys)
				if err := sp.drain(h); err != nil {
					return sw.fail(err)
				}
				h.Sum(sum[:0])
			default:
				sum = sha256SectionSum(s.keys, s.post)
			}
			putU64(&head, uint64(postLen))
			putU64(&head, 0) // reserved
			head.Write(sum[:])
		}
		headSum := sha256SectionSum(head.Bytes(), nil)
		head.Write(headSum[:])
	} else {
		headSum := sha256.Sum256(head.Bytes())
		head.Write(headSum[:])
	}
	if _, err := w.Write(head.Bytes()); err != nil {
		return sw.fail(fmt.Errorf("snapshot: write header: %w", err))
	}

	// Payload shards, re-verified against the write-time digest.
	if err := sw.payload.VerifyCopy(w); err != nil {
		return sw.fail(err)
	}
	if !sw.cfg.V3 {
		sw.emitObs(obsCount, nCertShards)
		return nil
	}
	off := int64(head.Len()) + sw.payload.Len()
	var zeros [8]byte
	writePad := func() error {
		if n := pad8(off); n > 0 {
			if _, err := w.Write(zeros[:n]); err != nil {
				return fmt.Errorf("snapshot: write padding: %w", err)
			}
			off += n
		}
		return nil
	}
	if err := writePad(); err != nil {
		return sw.fail(err)
	}
	var indexBytes int64
	for i, s := range sections {
		if _, err := w.Write(s.keys); err != nil {
			return sw.fail(fmt.Errorf("snapshot: write index section %d keys: %w", i, err))
		}
		off += int64(len(s.keys))
		indexBytes += int64(len(s.keys))
		switch i {
		case 2, 3:
			sp := ipPost
			if i == 3 {
				sp = asPost
			}
			cw := &countWriter{w: w}
			if err := sp.drain(cw); err != nil {
				return sw.fail(err)
			}
			off += cw.n
			indexBytes += cw.n
		default:
			if _, err := w.Write(s.post); err != nil {
				return sw.fail(fmt.Errorf("snapshot: write index section %d postings: %w", i, err))
			}
			off += int64(len(s.post))
			indexBytes += int64(len(s.post))
		}
		if err := writePad(); err != nil {
			return sw.fail(err)
		}
	}
	sw.emitObs(obsCount, nCertShards)
	sw.opt.Obs.Counter("snapshot.encode.index_bytes").Add(indexBytes)
	return nil
}

// emitObs mirrors the in-memory writer's snapshot.encode.* counters.
func (sw *StreamWriter) emitObs(obsCount uint64, nCertShards int) {
	reg := sw.opt.Obs
	reg.Counter("snapshot.encode.shards").Add(int64(len(sw.shardTab)))
	reg.Counter("snapshot.encode.certs").Add(int64(len(sw.fps)))
	reg.Counter("snapshot.encode.scans").Add(int64(len(sw.scans)))
	reg.Counter("snapshot.encode.observations").Add(int64(obsCount))
	var raw, comp int64
	for _, sh := range sw.shardTab {
		raw += sh.rawLen
		comp += sh.cLen
	}
	reg.Counter("snapshot.encode.raw_bytes").Add(raw)
	reg.Counter("snapshot.encode.comp_bytes").Add(comp)
}

// buildSections constructs the five v3 sections from the resident per-cert
// arrays and the external sorters. The fp/SPKI/scan-meta sections match
// buildV3Sections' emission exactly; the IP and AS sections stream out of
// the sorters group by group, re-sorting each (tiny) group by index
// position, which reproduces the in-memory (key, ref) sort order.
func (sw *StreamWriter) buildSections() (out [V3SectionCount]v3SectionData, ipPost, asPost *spillColumn, err error) {
	nCerts := len(sw.fps)
	order := make([]int, nCerts)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(sw.fps[order[a]][:], sw.fps[order[b]][:]) < 0
	})
	refOf := make([]uint32, nCerts)
	fpKeys := make([]byte, nCerts*V3FPEntry)
	for pos, id := range order {
		refOf[id] = uint32(pos)
		l := sw.locs[id]
		e := fpKeys[pos*V3FPEntry:]
		copy(e[:32], l.fp[:])
		binary.LittleEndian.PutUint32(e[32:], l.shard)
		binary.LittleEndian.PutUint32(e[36:], l.off)
		binary.LittleEndian.PutUint32(e[40:], l.dlen)
	}
	out[0] = v3SectionData{kind: V3KindFP, keyCount: uint64(nCerts), keys: fpKeys}

	spkiOrder := order // reuse: re-sorted by (spki, ref)
	sort.Slice(spkiOrder, func(a, b int) bool {
		ia, ib := spkiOrder[a], spkiOrder[b]
		if cmp := bytes.Compare(sw.spkis[ia][:], sw.spkis[ib][:]); cmp != 0 {
			return cmp < 0
		}
		return refOf[ia] < refOf[ib]
	})
	var spkiKeys, spkiPost []byte
	for lo := 0; lo < len(spkiOrder); {
		hi := lo
		for hi < len(spkiOrder) && sw.spkis[spkiOrder[hi]] == sw.spkis[spkiOrder[lo]] {
			hi++
		}
		var e [V3SPKIEntry]byte
		copy(e[:32], sw.spkis[spkiOrder[lo]][:])
		binary.LittleEndian.PutUint32(e[32:], uint32(lo))
		binary.LittleEndian.PutUint32(e[36:], uint32(hi-lo))
		spkiKeys = append(spkiKeys, e[:]...)
		for _, id := range spkiOrder[lo:hi] {
			spkiPost = binary.LittleEndian.AppendUint32(spkiPost, refOf[id])
		}
		lo = hi
	}
	out[1] = v3SectionData{kind: V3KindSPKI, keyCount: uint64(len(spkiKeys) / V3SPKIEntry), keys: spkiKeys, post: spkiPost}

	// IP section: the sorter yields (ip, scan, cert) groups; per (ip, scan)
	// the distinct refs are emitted ascending, matching the in-memory
	// (ip, scan, ref) sort with consecutive-duplicate skip.
	ipPost = newSpillColumn(sw.cfg.SpillDir)
	asPost = newSpillColumn(sw.cfg.SpillDir)
	var ipKeys []byte
	{
		elems := uint32(0)
		var curIP, curScan uint32
		var started bool
		var groupRefs []uint32 // refs of the current (ip, scan) subgroup
		var ipStart, ipCount uint32
		var prevCert uint32
		var havePrev bool
		var postTmp [8]byte

		flushSubgroup := func() error {
			sort.Slice(groupRefs, func(a, b int) bool { return groupRefs[a] < groupRefs[b] })
			for _, ref := range groupRefs {
				binary.LittleEndian.PutUint32(postTmp[:4], curScan)
				binary.LittleEndian.PutUint32(postTmp[4:], ref)
				if err := ipPost.append(postTmp[:]); err != nil {
					return err
				}
			}
			ipCount += uint32(len(groupRefs))
			elems += uint32(len(groupRefs))
			groupRefs = groupRefs[:0]
			havePrev = false
			return nil
		}
		flushIP := func() {
			var e [V3IPEntry]byte
			binary.LittleEndian.PutUint32(e[0:], curIP)
			binary.LittleEndian.PutUint32(e[4:], ipStart)
			binary.LittleEndian.PutUint32(e[8:], ipCount)
			ipKeys = append(ipKeys, e[:]...)
		}
		err = sw.ipSort.Merge(func(r ipRec) error {
			if started && r.ip == curIP && r.scan == curScan {
				if havePrev && r.cert == prevCert {
					return nil // repeat sighting of the same (scan, cert) at this IP
				}
				prevCert, havePrev = r.cert, true
				groupRefs = append(groupRefs, refOf[r.cert])
				return nil
			}
			if started {
				if err := flushSubgroup(); err != nil {
					return err
				}
				if r.ip != curIP {
					flushIP()
					curIP, ipStart, ipCount = r.ip, elems, 0
				}
			} else {
				started = true
				curIP, ipStart, ipCount = r.ip, 0, 0
			}
			curScan = r.scan
			prevCert, havePrev = r.cert, true
			groupRefs = append(groupRefs, refOf[r.cert])
			return nil
		})
		if err == nil && started {
			if err = flushSubgroup(); err == nil {
				flushIP()
			}
		}
		if err != nil {
			return out, ipPost, asPost, err
		}
	}
	out[2] = v3SectionData{kind: V3KindIP, keyCount: uint64(len(ipKeys) / V3IPEntry), keys: ipKeys}

	// AS section: per asn, distinct cert refs ascending.
	var asKeys []byte
	var asKeyCount uint64
	if sw.asSort != nil {
		elems := uint32(0)
		var curASN uint32
		var started bool
		var groupRefs []uint32
		var prevCert uint32
		var havePrev bool
		var postTmp [4]byte

		flushASN := func() error {
			sort.Slice(groupRefs, func(a, b int) bool { return groupRefs[a] < groupRefs[b] })
			for _, ref := range groupRefs {
				binary.LittleEndian.PutUint32(postTmp[:], ref)
				if err := asPost.append(postTmp[:]); err != nil {
					return err
				}
			}
			var e [V3ASEntry]byte
			binary.LittleEndian.PutUint32(e[0:], curASN)
			binary.LittleEndian.PutUint32(e[4:], elems)
			binary.LittleEndian.PutUint32(e[8:], uint32(len(groupRefs)))
			asKeys = append(asKeys, e[:]...)
			elems += uint32(len(groupRefs))
			groupRefs = groupRefs[:0]
			havePrev = false
			return nil
		}
		err = sw.asSort.Merge(func(r asRec) error {
			if started && r.asn != curASN {
				if err := flushASN(); err != nil {
					return err
				}
				curASN = r.asn
			} else if !started {
				started = true
				curASN = r.asn
			}
			if havePrev && r.cert == prevCert {
				return nil
			}
			prevCert, havePrev = r.cert, true
			groupRefs = append(groupRefs, refOf[r.cert])
			return nil
		})
		if err == nil && started {
			err = flushASN()
		}
		if err != nil {
			return out, ipPost, asPost, err
		}
		asKeyCount = uint64(len(asKeys) / V3ASEntry)
	}
	out[3] = v3SectionData{kind: V3KindAS, keyCount: asKeyCount, keys: asKeys}

	metaKeys := make([]byte, len(sw.scans)*V3ScanMetaEntry)
	for i, s := range sw.scans {
		e := metaKeys[i*V3ScanMetaEntry:]
		binary.LittleEndian.PutUint32(e[0:], uint32(s.op))
		binary.LittleEndian.PutUint32(e[4:], uint32(s.at.Nanosecond()))
		binary.LittleEndian.PutUint64(e[8:], uint64(s.at.Unix()))
		binary.LittleEndian.PutUint32(e[16:], uint32(s.count))
	}
	out[4] = v3SectionData{kind: V3KindScanMeta, keyCount: uint64(len(sw.scans)), keys: metaKeys}
	return out, ipPost, asPost, nil
}

// EachCert replays every interned certificate's DER in ID order (requires
// KeepDERs). The DER slice is only valid during the callback.
func (sw *StreamWriter) EachCert(fn func(id scanstore.CertID, fp, spki x509lite.Fingerprint, der []byte) error) error {
	if sw.derSpill == nil {
		return fmt.Errorf("snapshot: EachCert without KeepDERs")
	}
	rd, err := sw.derSpill.Reader()
	if err != nil {
		return err
	}
	var head [68]byte
	var der []byte
	for id := 0; id < len(sw.fps); id++ {
		if _, err := io.ReadFull(rd, head[:]); err != nil {
			return fmt.Errorf("snapshot: DER spill truncated: %w", err)
		}
		var fp, spki x509lite.Fingerprint
		copy(fp[:], head[:32])
		copy(spki[:], head[32:64])
		dlen := binary.LittleEndian.Uint32(head[64:])
		if dlen == 0 || dlen > MaxCertDER {
			return fmt.Errorf("snapshot: DER spill corrupt length %d", dlen)
		}
		if cap(der) < int(dlen) {
			der = make([]byte, dlen)
		}
		der = der[:dlen]
		if _, err := io.ReadFull(rd, der); err != nil {
			return fmt.Errorf("snapshot: DER spill truncated: %w", err)
		}
		if err := fn(scanstore.CertID(id), fp, spki, der); err != nil {
			return err
		}
	}
	return nil
}

// SPKI returns the public-key fingerprint of an interned certificate.
func (sw *StreamWriter) SPKI(id scanstore.CertID) x509lite.Fingerprint { return sw.spkis[id] }

// Close releases every spill file and sorter. Safe to call more than once.
func (sw *StreamWriter) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if sw.payload != nil {
		keep(sw.payload.Remove())
		sw.payload = nil
	}
	if sw.derSpill != nil {
		keep(sw.derSpill.Remove())
		sw.derSpill = nil
	}
	if sw.ipSort != nil {
		keep(sw.ipSort.Close())
		sw.ipSort = nil
	}
	if sw.asSort != nil {
		keep(sw.asSort.Close())
		sw.asSort = nil
	}
	for _, s := range sw.scans {
		if s.certCol != nil {
			s.certCol.close()
		}
		if s.ipCol != nil {
			s.ipCol.close()
		}
	}
	return first
}

// flushWriter tees shard bytes into the payload spill while hashing and
// counting them for the shard-table entry.
type flushWriter struct {
	w   io.Writer
	h   hash.Hash
	n   int64
	err error
}

func newFlushWriter(w io.Writer) *flushWriter {
	return &flushWriter{w: w, h: sha256.New()}
}

func (f *flushWriter) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	n, err := f.w.Write(p)
	f.h.Write(p[:n])
	f.n += int64(n)
	f.err = err
	return n, err
}

func (f *flushWriter) sum() [32]byte {
	var s [32]byte
	f.h.Sum(s[:0])
	return s
}

// countWriter counts bytes through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// spillColumn buffers an append-only byte column in memory up to a small
// threshold, then overflows to a checksummed spill file. drain replays the
// column in order (spilled prefix, then the in-memory tail) and may be
// called more than once.
type spillColumn struct {
	dir   string
	buf   []byte
	spill *extsort.SpillFile
	err   error
}

// colSpillThreshold is the per-column in-memory cap before overflow. It is a
// variable only so tests can shrink it to force the spill path.
var colSpillThreshold = 256 << 10

func newSpillColumn(dir string) *spillColumn {
	return &spillColumn{dir: dir}
}

func (c *spillColumn) append(p []byte) error {
	if c.err != nil {
		return c.err
	}
	c.buf = append(c.buf, p...)
	if len(c.buf) >= colSpillThreshold {
		if c.spill == nil {
			c.spill, c.err = extsort.NewSpillFile(c.dir, "snapshot-col-*.spill")
			if c.err != nil {
				return c.err
			}
		}
		if _, err := c.spill.Write(c.buf); err != nil {
			c.err = err
			return err
		}
		c.buf = c.buf[:0]
	}
	return nil
}

func (c *spillColumn) len() int64 {
	n := int64(len(c.buf))
	if c.spill != nil {
		n += c.spill.Len()
	}
	return n
}

func (c *spillColumn) drain(w io.Writer) error {
	if c.err != nil {
		return c.err
	}
	if c.spill != nil {
		if err := c.spill.VerifyCopy(w); err != nil {
			return err
		}
	}
	if len(c.buf) > 0 {
		if _, err := w.Write(c.buf); err != nil {
			return err
		}
	}
	return nil
}

func (c *spillColumn) close() {
	if c == nil {
		return
	}
	if c.spill != nil {
		c.spill.Remove()
		c.spill = nil
	}
	c.buf = nil
}

// StreamCorpus encodes an already-resident corpus through a StreamWriter:
// certificates interned in corpus ID order, then every scan's observations in
// order — the same event stream the in-memory writers serialise, so the
// output is byte-identical to Write (or WriteV3, when cfg.V3 is set) while
// the encoder's bulky state stays on disk under cfg.MemBudget.
func StreamCorpus(w io.Writer, c *scanstore.Corpus, opt Options, cfg StreamWriterConfig) error {
	sw, err := NewStreamWriter(opt, cfg)
	if err != nil {
		return err
	}
	defer sw.Close()
	for i := 0; i < c.NumCerts(); i++ {
		cert := c.Cert(scanstore.CertID(i)).Cert
		if _, _, err := sw.Intern(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint()); err != nil {
			return err
		}
	}
	for s := 0; s < c.NumScans(); s++ {
		scan := c.Scan(scanstore.ScanID(s))
		if err := sw.BeginScan(scan.Operator, scan.Time); err != nil {
			return err
		}
		for _, o := range scan.Obs {
			if err := sw.AddObs(o.Cert, o.IP); err != nil {
				return err
			}
		}
	}
	return sw.Finish(w)
}
