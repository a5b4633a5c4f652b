// Package querystore is the random-access read path over snapshot v3 files:
// open a file, answer point lookups — certificate by fingerprint, cert set
// by SPKI, sighting run by IP, cert set by AS — without ever decoding the
// corpus. The whole-corpus load (snapshot.Read) costs seconds at paper scale
// because every shard must be inflated and every DER re-parsed; a point
// lookup here is a binary search over an mmapped index section plus, for
// certificate bodies, one shard inflation that a small hot-shard cache
// amortises across clustered queries.
//
// Both readers judge a file by the same rules: open frames it with
// snapshot.ReadV3Layout, the judge snapshot.Read runs on too (magic, header
// checksum, caps, exact size, zero padding), so whatever Read accepts opens
// here. Zero-copy rules: index sections are served directly from the mapped
// file (or from buffers read once at open, on the io.ReaderAt fallback);
// they are never written to. Certificate DER always comes out of a
// decompressed heap buffer, never aliases the mapping, so parsed
// certificates stay valid after Close. Every section is checksum-verified
// and structurally validated at open — sortedness, contiguous posting
// groups, in-bounds offsets — so the lookup hot path indexes without
// rechecking; shard payloads go through V3Shard.Inflate, Read's shard check,
// lazily, on first inflation. As for snapshot.Read, the checksums catch
// corruption, not tampering: an attacker who can rewrite the file can
// rewrite the digests to match (set Options.VerifyDigests when the file is
// untrusted).
//
// The store is safe for concurrent readers; lookups scale across cores
// because the hot path takes no locks (the cache is copy-on-write).
package querystore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/obs"
	"securepki/internal/scanstore"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// Options tunes a Store. The zero value is ready to use.
type Options struct {
	// CacheShards bounds the hot-shard cache: how many decompressed
	// certificate shards stay resident (default 16). With the default shard
	// granularity that is ~32k hot certificates.
	CacheShards int
	// VerifyDigests re-hashes every DER served by ByFingerprint against the
	// index fingerprint — the tamper check, at one SHA-256 per hit.
	VerifyDigests bool
	// Obs receives query.* metrics; nil disables instrumentation.
	Obs *obs.Registry
	// Journal receives "query.shard_error" events when a shard read or
	// inflate fails — the store keeps serving, but an operator tailing
	// /events sees the corruption immediately. nil disables journaling.
	Journal *obs.Journal
}

// mapping is the random-access seam between the store and its file: mmap
// where the platform provides it (see mmap_unix.go), pread everywhere else.
// Bytes returns n bytes at off — a zero-copy subslice for mmap, a fresh
// buffer for the fallback — and must bounds-check both ends.
type mapping interface {
	io.ReaderAt
	Bytes(off, n int64) ([]byte, error)
	Close() error
}

// mmapOpen is installed by the one build-tagged mmap file at init; nil on
// platforms without it, which routes every open through the fallback.
var mmapOpen func(f *os.File, size int64) (mapping, error)

// readerAtMapping is the io.ReaderAt fallback: an open file where mmap is
// unavailable or fails (closer is the file), or OpenReaderAt's source
// (closer nil, as the caller keeps it). Bytes reads into a fresh buffer, and
// a range past the end fails in ReadAt.
type readerAtMapping struct {
	io.ReaderAt
	closer io.Closer
}

func (m *readerAtMapping) Bytes(off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	if k, err := m.ReadAt(buf, off); k < len(buf) {
		return nil, err
	}
	return buf, nil
}

func (m *readerAtMapping) Close() error {
	if m.closer == nil {
		return nil
	}
	return m.closer.Close()
}

// Store answers point lookups over one open v3 snapshot. Safe for
// concurrent use after Open returns.
type Store struct {
	lay   *snapshot.V3Layout
	src   mapping
	secs  [snapshot.V3SectionCount]sectionBytes
	cache *shardCache

	verify bool

	// Range guards, captured from the persisted sorted key arrays at open: a
	// probe below the first or above the last key of a section cannot match,
	// so negative lookups outside the range answer from two resident values
	// without a single binary-search probe. Empty sections store the
	// always-miss sentinel (lo > hi), which every probe fails.
	fpLo, fpHi     x509lite.Fingerprint
	spkiLo, spkiHi x509lite.Fingerprint
	ipLo, ipHi     uint32
	asLo, asHi     uint32

	cFP, cSPKI, cIP, cAS, cMiss        *obs.Counter
	cMissGuard                         *obs.Counter
	cCacheHit, cCacheMiss, cCacheEvict *obs.Counter
	cInflate                           *obs.Counter
	journal                            *obs.Journal
}

type sectionBytes struct{ keys, post []byte }

// Open maps (or, failing that, opens for pread) a v3 snapshot file and
// validates every index section. Any other file is rejected with an
// explicit error.
func Open(path string, opt Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("querystore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("querystore: %w", err)
	}
	size := fi.Size()
	var src mapping
	if mmapOpen != nil {
		if m, err := mmapOpen(f, size); err == nil {
			src = m
			f.Close() // the mapping outlives the descriptor
		}
	}
	if src == nil {
		src = &readerAtMapping{ReaderAt: f, closer: f}
	}
	st, err := open(src, size, opt)
	if err != nil {
		src.Close()
		return nil, err
	}
	return st, nil
}

// OpenReaderAt opens a store over any random-access source — the fallback
// path made explicit, used by tests and in-memory tooling.
func OpenReaderAt(ra io.ReaderAt, size int64, opt Options) (*Store, error) {
	return open(&readerAtMapping{ReaderAt: ra}, size, opt)
}

func open(src mapping, size int64, opt Options) (*Store, error) {
	lay, err := snapshot.ReadV3Layout(src, size)
	if err != nil {
		return nil, err
	}
	st := &Store{lay: lay, src: src, verify: opt.VerifyDigests}
	for i, sec := range lay.Sections {
		keys, err := src.Bytes(sec.KeysOff, sec.KeysLen())
		if err != nil {
			return nil, fmt.Errorf("querystore: read index section %d keys: %w", i, err)
		}
		post, err := src.Bytes(sec.PostOff, int64(sec.PostLen))
		if err != nil {
			return nil, fmt.Errorf("querystore: read index section %d postings: %w", i, err)
		}
		// Checksums and structure are judged once here; lookups then index
		// these bytes without rechecking.
		if err := lay.ValidateSection(i, keys, post); err != nil {
			return nil, err
		}
		st.secs[i] = sectionBytes{keys: keys, post: post}
	}
	st.fpLo, st.fpHi = fpKeyRange(st.secs[0].keys, snapshot.V3FPEntry, int(lay.CertCount))
	st.spkiLo, st.spkiHi = fpKeyRange(st.secs[1].keys, snapshot.V3SPKIEntry, int(lay.Sections[1].KeyCount))
	st.ipLo, st.ipHi = u32KeyRange(st.secs[2].keys, snapshot.V3IPEntry, int(lay.Sections[2].KeyCount))
	st.asLo, st.asHi = u32KeyRange(st.secs[3].keys, snapshot.V3ASEntry, int(lay.Sections[3].KeyCount))
	cacheShards := opt.CacheShards
	if cacheShards <= 0 {
		cacheShards = 16
	}
	st.cache = newShardCache(cacheShards)

	reg := opt.Obs
	st.cFP = reg.Counter("query.lookup.fingerprint")
	st.cSPKI = reg.Counter("query.lookup.spki")
	st.cIP = reg.Counter("query.lookup.ip")
	st.cAS = reg.Counter("query.lookup.as")
	st.cMiss = reg.Counter("query.lookup.miss")
	st.cMissGuard = reg.Counter("query.lookup.miss_guarded")
	st.cCacheHit = reg.Counter("query.cache.hit", obs.Volatile)
	st.cCacheMiss = reg.Counter("query.cache.miss", obs.Volatile)
	st.cCacheEvict = reg.Counter("query.cache.evict", obs.Volatile)
	st.cInflate = reg.Counter("query.cache.inflate_raw_bytes", obs.Volatile)
	st.journal = opt.Journal
	reg.Gauge("query.store.certs").Set(int64(lay.CertCount))
	reg.Gauge("query.store.scans").Set(int64(lay.ScanCount))
	reg.Gauge("query.store.observations").Set(int64(lay.ObsCount))
	return st, nil
}

// fpKeyRange returns the first and last 32-byte key of a sorted section with
// entrySize-byte entries, or the always-miss sentinel (lo = ff…ff, hi = 0) for
// an empty section: any probe is below lo, and the one equal to lo exceeds hi.
func fpKeyRange(keys []byte, entrySize, n int) (lo, hi x509lite.Fingerprint) {
	if n == 0 {
		for i := range lo {
			lo[i] = 0xff
		}
		return lo, hi
	}
	copy(lo[:], keys[:32])
	copy(hi[:], keys[(n-1)*entrySize:])
	return lo, hi
}

// u32KeyRange is fpKeyRange for sections keyed by a little-endian uint32.
func u32KeyRange(keys []byte, entrySize, n int) (lo, hi uint32) {
	if n == 0 {
		return math.MaxUint32, 0
	}
	return binary.LittleEndian.Uint32(keys), binary.LittleEndian.Uint32(keys[(n-1)*entrySize:])
}

// Close releases the mapping (or file). Certificates returned earlier stay
// valid — their DER was copied out of decompressed buffers, never the map.
func (s *Store) Close() error {
	src := s.src
	s.src = nil
	if src == nil {
		return nil
	}
	return src.Close()
}

// Stats describes the opened snapshot.
type Stats struct {
	Certs, Scans   int
	Observations   uint64
	IPKeys, ASKeys int
}

// Stats returns corpus and index cardinalities.
func (s *Store) Stats() Stats {
	return Stats{
		Certs:        int(s.lay.CertCount),
		Scans:        int(s.lay.ScanCount),
		Observations: s.lay.ObsCount,
		IPKeys:       int(s.lay.Sections[2].KeyCount),
		ASKeys:       int(s.lay.Sections[3].KeyCount),
	}
}

// NumCerts returns the number of distinct certificates in the snapshot.
func (s *Store) NumCerts() int { return int(s.lay.CertCount) }

// NumScans returns the number of scans in the snapshot.
func (s *Store) NumScans() int { return int(s.lay.ScanCount) }

// FingerprintAt returns the fingerprint of the certref's entry in the sorted
// fingerprint index: ref < NumCerts, in ascending fingerprint order. Refs
// read from the index postings were bounds-checked at open.
func (s *Store) FingerprintAt(ref uint32) x509lite.Fingerprint {
	var fp x509lite.Fingerprint
	copy(fp[:], s.secs[0].keys[int(ref)*snapshot.V3FPEntry:])
	return fp
}

// ByFingerprint finds one certificate by SHA-256 fingerprint: a binary
// search over the fingerprint index, then a lazy single-cert parse out of
// the (cached) decompressed shard. The boolean is false when the
// fingerprint is not in the corpus.
func (s *Store) ByFingerprint(fp x509lite.Fingerprint) (*x509lite.Certificate, bool, error) {
	if bytes.Compare(fp[:], s.fpLo[:]) < 0 || bytes.Compare(fp[:], s.fpHi[:]) > 0 {
		s.cMissGuard.Inc()
		s.cMiss.Inc()
		return nil, false, nil
	}
	keys := s.secs[0].keys
	n := int(s.lay.CertCount)
	k := sort.Search(n, func(i int) bool {
		return bytes.Compare(keys[i*snapshot.V3FPEntry:i*snapshot.V3FPEntry+32], fp[:]) >= 0
	})
	if k >= n || !bytes.Equal(keys[k*snapshot.V3FPEntry:k*snapshot.V3FPEntry+32], fp[:]) {
		s.cMiss.Inc()
		return nil, false, nil
	}
	e := keys[k*snapshot.V3FPEntry:]
	shard := binary.LittleEndian.Uint32(e[32:])
	off := binary.LittleEndian.Uint32(e[36:])
	dlen := binary.LittleEndian.Uint32(e[40:])
	raw, err := s.shardRaw(shard)
	if err != nil {
		return nil, false, err
	}
	der := raw[off : off+dlen]
	if s.verify {
		if got := x509lite.FingerprintBytes(der); got != fp {
			return nil, false, fmt.Errorf("querystore: cert %s digest mismatch (stored DER hashes to %s)", fp, got)
		}
	}
	cert, err := x509lite.ParseWithDigest(der, fp)
	if err != nil {
		return nil, false, fmt.Errorf("querystore: cert %s: %w", fp, err)
	}
	s.cFP.Inc()
	return cert, true, nil
}

// BySPKI returns the fingerprints of every certificate carrying the public
// key, ascending in index order — the paper's key-sharing groups, served in
// one binary search.
func (s *Store) BySPKI(spki x509lite.Fingerprint) ([]x509lite.Fingerprint, bool, error) {
	if bytes.Compare(spki[:], s.spkiLo[:]) < 0 || bytes.Compare(spki[:], s.spkiHi[:]) > 0 {
		s.cMissGuard.Inc()
		s.cMiss.Inc()
		return nil, false, nil
	}
	sec := s.secs[1]
	n := int(s.lay.Sections[1].KeyCount)
	k := sort.Search(n, func(i int) bool {
		return bytes.Compare(sec.keys[i*snapshot.V3SPKIEntry:i*snapshot.V3SPKIEntry+32], spki[:]) >= 0
	})
	if k >= n || !bytes.Equal(sec.keys[k*snapshot.V3SPKIEntry:k*snapshot.V3SPKIEntry+32], spki[:]) {
		s.cMiss.Inc()
		return nil, false, nil
	}
	e := sec.keys[k*snapshot.V3SPKIEntry:]
	off := binary.LittleEndian.Uint32(e[32:])
	cnt := binary.LittleEndian.Uint32(e[36:])
	fps := make([]x509lite.Fingerprint, cnt)
	for j := range fps {
		fps[j] = s.FingerprintAt(binary.LittleEndian.Uint32(sec.post[(off+uint32(j))*4:]))
	}
	s.cSPKI.Inc()
	return fps, true, nil
}

// Sighting is one (scan, certificate) appearance at an IP, with the scan's
// metadata resolved from the scan-metadata section.
type Sighting struct {
	Scan        int
	Operator    scanstore.Operator
	Time        time.Time
	Fingerprint x509lite.Fingerprint
}

// ByIP returns everything the IP served across all scans, in (scan, cert)
// order, deduplicated.
func (s *Store) ByIP(ip netsim.IP) ([]Sighting, bool, error) {
	sec := s.secs[2]
	n := int(s.lay.Sections[2].KeyCount)
	want := uint32(ip)
	if want < s.ipLo || want > s.ipHi {
		s.cMissGuard.Inc()
		s.cMiss.Inc()
		return nil, false, nil
	}
	k := sort.Search(n, func(i int) bool {
		return binary.LittleEndian.Uint32(sec.keys[i*snapshot.V3IPEntry:]) >= want
	})
	if k >= n || binary.LittleEndian.Uint32(sec.keys[k*snapshot.V3IPEntry:]) != want {
		s.cMiss.Inc()
		return nil, false, nil
	}
	e := sec.keys[k*snapshot.V3IPEntry:]
	off := binary.LittleEndian.Uint32(e[4:])
	cnt := binary.LittleEndian.Uint32(e[8:])
	out := make([]Sighting, cnt)
	for j := range out {
		scan := binary.LittleEndian.Uint32(sec.post[(off+uint32(j))*8:])
		ref := binary.LittleEndian.Uint32(sec.post[(off+uint32(j))*8+4:])
		meta := snapshot.ScanMetaAt(s.secs[4].keys, int(scan))
		out[j] = Sighting{
			Scan:        int(scan),
			Operator:    scanstore.Operator(meta.Operator),
			Time:        meta.Time,
			Fingerprint: s.FingerprintAt(ref),
		}
	}
	s.cIP.Inc()
	return out, true, nil
}

// ByAS returns the fingerprints of every certificate observed inside the AS,
// ascending in index order. Snapshots written without a network view
// (Options.ASOf nil at write time) answer false for every AS.
func (s *Store) ByAS(asn int) ([]x509lite.Fingerprint, bool, error) {
	if asn < 0 || int64(asn) > math.MaxUint32 {
		s.cMiss.Inc()
		return nil, false, nil
	}
	sec := s.secs[3]
	n := int(s.lay.Sections[3].KeyCount)
	want := uint32(asn)
	if want < s.asLo || want > s.asHi {
		s.cMissGuard.Inc()
		s.cMiss.Inc()
		return nil, false, nil
	}
	k := sort.Search(n, func(i int) bool {
		return binary.LittleEndian.Uint32(sec.keys[i*snapshot.V3ASEntry:]) >= want
	})
	if k >= n || binary.LittleEndian.Uint32(sec.keys[k*snapshot.V3ASEntry:]) != want {
		s.cMiss.Inc()
		return nil, false, nil
	}
	e := sec.keys[k*snapshot.V3ASEntry:]
	off := binary.LittleEndian.Uint32(e[4:])
	cnt := binary.LittleEndian.Uint32(e[8:])
	fps := make([]x509lite.Fingerprint, cnt)
	for j := range fps {
		fps[j] = s.FingerprintAt(binary.LittleEndian.Uint32(sec.post[(off+uint32(j))*4:]))
	}
	s.cAS.Inc()
	return fps, true, nil
}

// shardRaw returns the decompressed payload of one certificate shard, via
// the hot-shard cache. The shard checksum is verified on the inflate path,
// so a corrupted payload region is caught the first time it is touched.
func (s *Store) shardRaw(i uint32) ([]byte, error) {
	if raw, ok := s.cache.get(i); ok {
		s.cCacheHit.Inc()
		return raw, nil
	}
	s.cCacheMiss.Inc()
	sh := s.lay.Shards[i]
	comp, err := s.src.Bytes(sh.Off, int64(sh.CompLen))
	if err != nil {
		s.journal.Emit("query.shard_error", "shard", fmt.Sprint(i), "op", "read")
		return nil, fmt.Errorf("querystore: read shard %d: %w", i, err)
	}
	raw, err := sh.Inflate(comp)
	if err != nil {
		s.journal.Emit("query.shard_error", "shard", fmt.Sprint(i), "op", "inflate")
		return nil, fmt.Errorf("querystore: shard %d: %w", i, err)
	}
	s.cInflate.Add(int64(len(raw)))
	raw, evicted := s.cache.put(i, raw)
	if evicted {
		s.cCacheEvict.Inc()
	}
	return raw, nil
}
