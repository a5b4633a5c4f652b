package snapshot

// Snapshot format v3: everything v2 is, plus appended point-lookup indexes.
//
// v2 made bulk loads fast, but every point question ("which certs carry this
// SPKI?", "what did this IP serve?") still decoded whole shards. v3 appends
// four fixed-width, sorted, SHA-256-checksummed index sections after the
// compressed payloads, laid out little-endian and 8-byte aligned so a reader
// can mmap the file and binary-search the indexes without decoding a single
// shard. A fifth section carries per-scan metadata so IP answers can name the
// scan's operator and time without touching scan shards.
//
// Layout (integers little-endian; see DESIGN.md "Snapshot format v3"):
//
//	magic        [8]byte  "SPKISNP3"
//	certCount    uint64
//	scanCount    uint64
//	obsCount     uint64
//	certShards   uint32
//	scanShards   uint32
//	idxSections  uint32   must equal V3SectionCount
//	reserved     uint32   must be zero
//	shard table  (certShards+scanShards) × 64-byte entries, exactly v2's
//	index table  idxSections × 64-byte entries:
//	  kind       uint32   1=fp 2=spki 3=ip 4=as 5=scanmeta, in that order
//	  entrySize  uint32   fixed key-entry width for the kind
//	  keyCount   uint64
//	  postLen    uint64   posting-array byte length
//	  reserved   uint64   must be zero
//	  sum        [32]byte SHA-256 of keys ‖ postings
//	headerSum    [32]byte SHA-256 of everything above
//	payloads     compressed shards, concatenated in table order (v2's bytes)
//	zero padding to the next 8-byte file offset
//	per section, in table order: keys, postings, zero padding to 8 bytes
//
// Key entries per kind (reserved fields must be zero):
//
//	fp (48B):       fp[32], shard u32, derOff u32, derLen u32, reserved u32
//	                sorted by fingerprint; derOff/derLen locate the DER inside
//	                the named cert shard's *uncompressed* payload
//	spki (40B):     spki[32], postOff u32, postCount u32
//	                postings: uint32 certrefs (positions in the sorted fp
//	                index), ascending; every certificate appears exactly once
//	                across all groups
//	ip (16B):       ip u32, postOff u32, postCount u32, reserved u32
//	                postings: (scan u32, certref u32) pairs, ascending, distinct
//	as (16B):       asn u32, postOff u32, postCount u32, reserved u32
//	                postings: uint32 certrefs, ascending, distinct; empty when
//	                the writer had no AS view (Options.ASOf nil)
//	scanmeta (24B): operator u32, nanos u32, unixSec u64 (int64 bits),
//	                obsCount u32, reserved u32 — in scan-ID order
//
// postOff is an element index (not bytes) into the section's posting array;
// groups tile the array contiguously, which the reader verifies, so no two
// keys can claim overlapping postings. Certificates are referenced by their
// position in the sorted fingerprint index ("certref"), never by corpus
// CertID, so a random-access reader needs no ID→fingerprint table.
//
// The zero-copy rule: index sections and scan metadata may be served straight
// from the mapped file; certificate DER is always copied out of a
// decompressed shard buffer, never aliased to the mapping.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"securepki/internal/netsim"
)

// MagicV3 opens every v3 snapshot.
const MagicV3 = "SPKISNP3"

// headerFixedV3 is the byte length of the v3 fixed header.
const headerFixedV3 = 8 + 3*8 + 4*4

// idxTableEntry is the byte length of one index-table entry.
const idxTableEntry = 2*4 + 3*8 + 32

// V3SectionCount is the number of index sections a v3 file carries — always
// exactly five, in kind order. A header claiming any other count is rejected
// before the index table is even allocated.
const V3SectionCount = 5

// Index section kinds, in file order.
const (
	V3KindFP       = 1 // fingerprint → (shard, DER offset, length)
	V3KindSPKI     = 2 // SPKI fingerprint → cert set
	V3KindIP       = 3 // IP → (scan, cert) sighting runs
	V3KindAS       = 4 // AS number → cert set
	V3KindScanMeta = 5 // scan ID → (operator, time, obs count)
)

// Fixed key-entry widths per kind.
const (
	V3FPEntry       = 48
	V3SPKIEntry     = 40
	V3IPEntry       = 16
	V3ASEntry       = 16
	V3ScanMetaEntry = 24
)

// maxIndexBytes bounds one index section's keys array and posting array
// independently, so a hostile header cannot force a huge allocation.
const maxIndexBytes = 1 << 30

// v3EntrySize maps a section kind (1-based) to its key-entry width.
func v3EntrySize(kind uint32) uint32 {
	switch kind {
	case V3KindFP:
		return V3FPEntry
	case V3KindSPKI:
		return V3SPKIEntry
	case V3KindIP:
		return V3IPEntry
	case V3KindAS:
		return V3ASEntry
	case V3KindScanMeta:
		return V3ScanMetaEntry
	}
	return 0
}

// pad8 returns how many zero bytes bring off to the next 8-byte boundary.
func pad8(off int64) int64 { return (8 - off%8) % 8 }

// V3Shard is one shard-table entry plus its resolved file offset.
type V3Shard struct {
	First, Count    uint64
	RawLen, CompLen uint64
	Sum             [32]byte
	Off             int64 // absolute file offset of the compressed payload
}

// Inflate checksums and decompresses the shard's payload, insisting on the
// exact advertised uncompressed length.
func (sh V3Shard) Inflate(comp []byte) ([]byte, error) {
	if uint64(len(comp)) != sh.CompLen {
		return nil, fmt.Errorf("snapshot: shard payload is %d bytes, table says %d", len(comp), sh.CompLen)
	}
	if sum := sha256.Sum256(comp); sum != sh.Sum {
		return nil, fmt.Errorf("snapshot: shard checksum mismatch")
	}
	return gunzipShard(comp, sh.RawLen)
}

// V3Section is one index-table entry plus its resolved file offsets.
type V3Section struct {
	Kind      uint32
	EntrySize uint32
	KeyCount  uint64
	PostLen   uint64
	Sum       [32]byte // SHA-256 of keys ‖ postings
	KeysOff   int64    // absolute file offset of the key array
	PostOff   int64    // absolute file offset of the posting array
}

// KeysLen returns the key array's byte length.
func (s V3Section) KeysLen() int64 { return int64(s.KeyCount) * int64(s.EntrySize) }

// V3Layout is the parsed header of a v3 file: counts, shard table and index
// table with absolute offsets, everything a random-access reader needs to
// serve lookups without streaming the file. ReadV3Layout is the only
// constructor; it verifies the header checksum and every structural bound
// against the file size before returning.
type V3Layout struct {
	CertCount, ScanCount, ObsCount uint64
	CertShards, ScanShards         uint32
	Shards                         []V3Shard
	Sections                       [V3SectionCount]V3Section
	Size                           int64 // exact file size the layout demands
}

// ReadV3Layout parses and validates a v3 header from a random-access source.
// It reads only the header region (fixed header, shard table, index table,
// checksum) plus the alignment padding; payloads and sections stay untouched.
// All input is hostile: every count is capped before the allocation it sizes,
// and the resulting layout is checked against the actual file size so no
// later read can run off the end.
func ReadV3Layout(ra io.ReaderAt, size int64) (*V3Layout, error) {
	fixed := make([]byte, headerFixedV3)
	if size < headerFixedV3 {
		return nil, fmt.Errorf("snapshot: %d bytes is too short for a v3 header", size)
	}
	if _, err := ra.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("snapshot: read v3 header: %w", err)
	}
	if string(fixed[:8]) != MagicV3 {
		return nil, fmt.Errorf("snapshot: not a v3 snapshot (magic %q)", fixed[:8])
	}
	lay, nShards, err := parseV3Fixed(fixed)
	if err != nil {
		return nil, err
	}

	tableLen := int64(nShards) * tableEntry
	idxLen := int64(V3SectionCount) * idxTableEntry
	headerLen := int64(headerFixedV3) + tableLen + idxLen + 32
	if size < headerLen {
		return nil, fmt.Errorf("snapshot: %d bytes is too short for the v3 header tables", size)
	}
	tables := make([]byte, tableLen+idxLen+32)
	if _, err := ra.ReadAt(tables, headerFixedV3); err != nil {
		return nil, fmt.Errorf("snapshot: read v3 tables: %w", err)
	}
	table := tables[:tableLen]
	itable := tables[tableLen : tableLen+idxLen]
	h := sha256.New()
	h.Write(fixed)
	h.Write(table)
	h.Write(itable)
	if !bytes.Equal(h.Sum(nil), tables[tableLen+idxLen:]) {
		return nil, fmt.Errorf("snapshot: header checksum mismatch")
	}
	if err := parseV3Tables(lay, table, itable); err != nil {
		return nil, err
	}

	// Resolve absolute offsets and demand the file is exactly the right size:
	// shorter is truncation, longer is trailing garbage.
	off := headerLen
	for i := range lay.Shards {
		lay.Shards[i].Off = off
		off += int64(lay.Shards[i].CompLen)
	}
	off += pad8(off)
	for i := range lay.Sections {
		lay.Sections[i].KeysOff = off
		off += lay.Sections[i].KeysLen()
		lay.Sections[i].PostOff = off
		off += int64(lay.Sections[i].PostLen)
		off += pad8(off)
	}
	lay.Size = off
	if size != lay.Size {
		return nil, fmt.Errorf("snapshot: file is %d bytes, v3 layout wants %d", size, lay.Size)
	}
	return lay, nil
}

// parseV3Fixed validates the fixed header fields. The index-section count is
// judged here, before any table is allocated: a count disagreeing with the
// format is an explicit error, never an allocation size.
func parseV3Fixed(fixed []byte) (*V3Layout, uint64, error) {
	lay := &V3Layout{
		CertCount:  binary.LittleEndian.Uint64(fixed[8:]),
		ScanCount:  binary.LittleEndian.Uint64(fixed[16:]),
		ObsCount:   binary.LittleEndian.Uint64(fixed[24:]),
		CertShards: binary.LittleEndian.Uint32(fixed[32:]),
		ScanShards: binary.LittleEndian.Uint32(fixed[36:]),
	}
	idxSections := binary.LittleEndian.Uint32(fixed[40:])
	reserved := binary.LittleEndian.Uint32(fixed[44:])
	if idxSections != V3SectionCount {
		return nil, 0, fmt.Errorf("snapshot: header claims %d index sections, format has %d", idxSections, V3SectionCount)
	}
	if reserved != 0 {
		return nil, 0, fmt.Errorf("snapshot: reserved header field is %d, want 0", reserved)
	}
	if lay.CertCount > maxCerts || lay.ScanCount > maxScans {
		return nil, 0, fmt.Errorf("snapshot: absurd counts: %d certs, %d scans", lay.CertCount, lay.ScanCount)
	}
	nShards := uint64(lay.CertShards) + uint64(lay.ScanShards)
	if nShards > maxShards {
		return nil, 0, fmt.Errorf("snapshot: %d shards exceed cap %d", nShards, maxShards)
	}
	if (lay.CertCount == 0) != (lay.CertShards == 0) || (lay.ScanCount == 0) != (lay.ScanShards == 0) {
		return nil, 0, fmt.Errorf("snapshot: shard/count mismatch: %d certs in %d shards, %d scans in %d shards",
			lay.CertCount, lay.CertShards, lay.ScanCount, lay.ScanShards)
	}
	return lay, nShards, nil
}

// parseV3Tables decodes the shard and index tables into lay, applying the
// same per-shard caps and tiling discipline as v2 plus the per-section
// metadata invariants.
func parseV3Tables(lay *V3Layout, table, itable []byte) error {
	nShards := len(table) / tableEntry
	lay.Shards = make([]V3Shard, nShards)
	metas := make([]shardMeta, nShards)
	for i := range lay.Shards {
		e := table[i*tableEntry:]
		sh := V3Shard{
			First:   binary.LittleEndian.Uint64(e[0:]),
			Count:   binary.LittleEndian.Uint64(e[8:]),
			RawLen:  binary.LittleEndian.Uint64(e[16:]),
			CompLen: binary.LittleEndian.Uint64(e[24:]),
		}
		copy(sh.Sum[:], e[32:64])
		if sh.RawLen > maxShardRaw {
			return fmt.Errorf("snapshot: shard %d claims %d raw bytes, cap %d", i, sh.RawLen, maxShardRaw)
		}
		if sh.RawLen > (sh.CompLen+1024)*maxExpansion {
			return fmt.Errorf("snapshot: shard %d expansion %d -> %d exceeds ratio cap", i, sh.CompLen, sh.RawLen)
		}
		if sh.CompLen > maxShardRaw {
			return fmt.Errorf("snapshot: shard %d claims %d compressed bytes, cap %d", i, sh.CompLen, maxShardRaw)
		}
		lay.Shards[i] = sh
		metas[i] = shardMeta{first: sh.First, count: sh.Count, rawLen: sh.RawLen, compLen: sh.CompLen}
	}
	if err := checkTiling(metas[:lay.CertShards], lay.CertCount, "cert"); err != nil {
		return err
	}
	if err := checkTiling(metas[lay.CertShards:], lay.ScanCount, "scan"); err != nil {
		return err
	}
	for i := range lay.Sections {
		e := itable[i*idxTableEntry:]
		sec := V3Section{
			Kind:      binary.LittleEndian.Uint32(e[0:]),
			EntrySize: binary.LittleEndian.Uint32(e[4:]),
			KeyCount:  binary.LittleEndian.Uint64(e[8:]),
			PostLen:   binary.LittleEndian.Uint64(e[16:]),
		}
		if rsvd := binary.LittleEndian.Uint64(e[24:]); rsvd != 0 {
			return fmt.Errorf("snapshot: index section %d reserved field is %d, want 0", i, rsvd)
		}
		copy(sec.Sum[:], e[32:64])
		if err := validateV3SectionMeta(i, sec, lay); err != nil {
			return err
		}
		lay.Sections[i] = sec
	}
	return nil
}

// validateV3SectionMeta applies the per-kind count invariants that can be
// judged from the table alone, before any section bytes are read.
func validateV3SectionMeta(i int, sec V3Section, lay *V3Layout) error {
	wantKind := uint32(i + 1)
	if sec.Kind != wantKind {
		return fmt.Errorf("snapshot: index section %d has kind %d, want %d", i, sec.Kind, wantKind)
	}
	if want := v3EntrySize(sec.Kind); sec.EntrySize != want {
		return fmt.Errorf("snapshot: index section %d entry size %d, want %d", i, sec.EntrySize, want)
	}
	if sec.KeyCount > maxIndexBytes/uint64(sec.EntrySize) {
		return fmt.Errorf("snapshot: index section %d claims %d keys, cap %d", i, sec.KeyCount, maxIndexBytes/uint64(sec.EntrySize))
	}
	if sec.PostLen > maxIndexBytes {
		return fmt.Errorf("snapshot: index section %d claims %d posting bytes, cap %d", i, sec.PostLen, maxIndexBytes)
	}
	switch sec.Kind {
	case V3KindFP:
		if sec.KeyCount != lay.CertCount {
			return fmt.Errorf("snapshot: fingerprint index has %d keys for %d certificates", sec.KeyCount, lay.CertCount)
		}
		if sec.PostLen != 0 {
			return fmt.Errorf("snapshot: fingerprint index carries %d posting bytes, want 0", sec.PostLen)
		}
	case V3KindSPKI:
		if sec.KeyCount > lay.CertCount {
			return fmt.Errorf("snapshot: SPKI index has %d keys for %d certificates", sec.KeyCount, lay.CertCount)
		}
		if sec.PostLen != 4*lay.CertCount {
			return fmt.Errorf("snapshot: SPKI index carries %d posting bytes for %d certificates", sec.PostLen, lay.CertCount)
		}
		if (sec.KeyCount == 0) != (lay.CertCount == 0) {
			return fmt.Errorf("snapshot: SPKI index has %d keys for %d certificates", sec.KeyCount, lay.CertCount)
		}
	case V3KindIP:
		if sec.PostLen%8 != 0 {
			return fmt.Errorf("snapshot: IP index posting bytes %d not a multiple of 8", sec.PostLen)
		}
		pairs := sec.PostLen / 8
		if pairs > lay.ObsCount {
			return fmt.Errorf("snapshot: IP index holds %d sightings for %d observations", pairs, lay.ObsCount)
		}
		if sec.KeyCount > pairs {
			return fmt.Errorf("snapshot: IP index has %d keys but %d sightings", sec.KeyCount, pairs)
		}
		if (sec.KeyCount == 0) != (lay.ObsCount == 0) {
			return fmt.Errorf("snapshot: IP index has %d keys for %d observations", sec.KeyCount, lay.ObsCount)
		}
	case V3KindAS:
		if sec.PostLen%4 != 0 {
			return fmt.Errorf("snapshot: AS index posting bytes %d not a multiple of 4", sec.PostLen)
		}
		refs := sec.PostLen / 4
		if refs > lay.ObsCount {
			return fmt.Errorf("snapshot: AS index holds %d refs for %d observations", refs, lay.ObsCount)
		}
		if sec.KeyCount > refs {
			return fmt.Errorf("snapshot: AS index has %d keys but %d refs", sec.KeyCount, refs)
		}
		if refs > 0 && sec.KeyCount == 0 {
			return fmt.Errorf("snapshot: AS index has postings but no keys")
		}
	case V3KindScanMeta:
		if sec.KeyCount != lay.ScanCount {
			return fmt.Errorf("snapshot: scan metadata has %d entries for %d scans", sec.KeyCount, lay.ScanCount)
		}
		if sec.PostLen != 0 {
			return fmt.Errorf("snapshot: scan metadata carries %d posting bytes, want 0", sec.PostLen)
		}
	}
	return nil
}

// ValidateSection applies the full structural checks to one section's bytes:
// sorted keys, contiguous (never overlapping) posting groups, and every
// offset and reference in bounds. Both readers call it — the streaming loader
// before trusting the file, the random-access store at open so lookups can
// index without rechecking.
func (lay *V3Layout) ValidateSection(i int, keys, post []byte) error {
	sec := lay.Sections[i]
	if int64(len(keys)) != sec.KeysLen() || uint64(len(post)) != sec.PostLen {
		return fmt.Errorf("snapshot: index section %d bytes do not match its table entry", i)
	}
	es := int(sec.EntrySize)
	n := int(sec.KeyCount)
	entry := func(k int) []byte { return keys[k*es : (k+1)*es] }

	switch sec.Kind {
	case V3KindFP:
		var prev []byte
		for k := 0; k < n; k++ {
			e := entry(k)
			if prev != nil && bytes.Compare(prev, e[:32]) >= 0 {
				return fmt.Errorf("snapshot: fingerprint index unsorted at key %d", k)
			}
			prev = e[:32]
			shard := binary.LittleEndian.Uint32(e[32:])
			off := uint64(binary.LittleEndian.Uint32(e[36:]))
			dlen := uint64(binary.LittleEndian.Uint32(e[40:]))
			if rsvd := binary.LittleEndian.Uint32(e[44:]); rsvd != 0 {
				return fmt.Errorf("snapshot: fingerprint index key %d reserved field is %d", k, rsvd)
			}
			if shard >= lay.CertShards {
				return fmt.Errorf("snapshot: fingerprint index key %d references cert shard %d of %d", k, shard, lay.CertShards)
			}
			if dlen == 0 || dlen > MaxCertDER {
				return fmt.Errorf("snapshot: fingerprint index key %d claims %d DER bytes, cap %d", k, dlen, MaxCertDER)
			}
			if raw := lay.Shards[shard].RawLen; off+dlen > raw {
				return fmt.Errorf("snapshot: fingerprint index key %d DER range [%d,%d) outside shard %d payload of %d bytes",
					k, off, off+dlen, shard, raw)
			}
		}
	case V3KindSPKI, V3KindAS:
		what := "SPKI"
		if sec.Kind == V3KindAS {
			what = "AS"
		}
		// Key order, contiguous group layout, and per-group reference checks.
		var next uint64
		for k := 0; k < n; k++ {
			e := entry(k)
			if sec.Kind == V3KindSPKI {
				if k > 0 && bytes.Compare(entry(k - 1)[:32], e[:32]) >= 0 {
					return fmt.Errorf("snapshot: SPKI index unsorted at key %d", k)
				}
			} else {
				if k > 0 && binary.LittleEndian.Uint32(entry(k-1)) >= binary.LittleEndian.Uint32(e) {
					return fmt.Errorf("snapshot: AS index unsorted at key %d", k)
				}
				if rsvd := binary.LittleEndian.Uint32(e[12:]); rsvd != 0 {
					return fmt.Errorf("snapshot: AS index key %d reserved field is %d", k, rsvd)
				}
			}
			po := 32
			if sec.Kind == V3KindAS {
				po = 4
			}
			off := uint64(binary.LittleEndian.Uint32(e[po:]))
			cnt := uint64(binary.LittleEndian.Uint32(e[po+4:]))
			if off != next {
				return fmt.Errorf("snapshot: %s index key %d postings start at %d, want %d", what, k, off, next)
			}
			if cnt == 0 {
				return fmt.Errorf("snapshot: %s index key %d has no postings", what, k)
			}
			next += cnt
			if next > sec.PostLen/4 {
				return fmt.Errorf("snapshot: %s index postings overrun the array", what)
			}
			// Refs ascending and in bounds within the group.
			prevRef := int64(-1)
			for p := off; p < off+cnt; p++ {
				ref := binary.LittleEndian.Uint32(post[p*4:])
				if uint64(ref) >= lay.CertCount {
					return fmt.Errorf("snapshot: %s index references cert %d of %d", what, ref, lay.CertCount)
				}
				if int64(ref) <= prevRef {
					return fmt.Errorf("snapshot: %s index key %d postings unsorted", what, k)
				}
				prevRef = int64(ref)
			}
		}
		if next != sec.PostLen/4 {
			return fmt.Errorf("snapshot: %s index postings cover %d of %d elements", what, next, sec.PostLen/4)
		}
	case V3KindIP:
		var next uint64
		for k := 0; k < n; k++ {
			e := entry(k)
			if k > 0 && binary.LittleEndian.Uint32(entry(k-1)) >= binary.LittleEndian.Uint32(e) {
				return fmt.Errorf("snapshot: IP index unsorted at key %d", k)
			}
			if rsvd := binary.LittleEndian.Uint32(e[12:]); rsvd != 0 {
				return fmt.Errorf("snapshot: IP index key %d reserved field is %d", k, rsvd)
			}
			off := uint64(binary.LittleEndian.Uint32(e[4:]))
			cnt := uint64(binary.LittleEndian.Uint32(e[8:]))
			if off != next {
				return fmt.Errorf("snapshot: IP index key %d postings start at %d, want %d", k, off, next)
			}
			if cnt == 0 {
				return fmt.Errorf("snapshot: IP index key %d has no postings", k)
			}
			next += cnt
			if next > sec.PostLen/8 {
				return fmt.Errorf("snapshot: IP index postings overrun the array")
			}
			prevScan, prevRef := int64(-1), int64(-1)
			for p := off; p < off+cnt; p++ {
				scan := binary.LittleEndian.Uint32(post[p*8:])
				ref := binary.LittleEndian.Uint32(post[p*8+4:])
				if uint64(scan) >= lay.ScanCount {
					return fmt.Errorf("snapshot: IP index references scan %d of %d", scan, lay.ScanCount)
				}
				if uint64(ref) >= lay.CertCount {
					return fmt.Errorf("snapshot: IP index references cert %d of %d", ref, lay.CertCount)
				}
				if int64(scan) < prevScan || (int64(scan) == prevScan && int64(ref) <= prevRef) {
					return fmt.Errorf("snapshot: IP index key %d postings unsorted", k)
				}
				prevScan, prevRef = int64(scan), int64(ref)
			}
		}
		if next != sec.PostLen/8 {
			return fmt.Errorf("snapshot: IP index postings cover %d of %d elements", next, sec.PostLen/8)
		}
	case V3KindScanMeta:
		var total uint64
		prevSec := int64(0)
		for k := 0; k < n; k++ {
			e := entry(k)
			op := binary.LittleEndian.Uint32(e[0:])
			nanos := binary.LittleEndian.Uint32(e[4:])
			sec64 := int64(binary.LittleEndian.Uint64(e[8:]))
			cnt := binary.LittleEndian.Uint32(e[16:])
			if rsvd := binary.LittleEndian.Uint32(e[20:]); rsvd != 0 {
				return fmt.Errorf("snapshot: scan metadata %d reserved field is %d", k, rsvd)
			}
			if op > 1<<20 {
				return fmt.Errorf("snapshot: scan %d operator %d is absurd", k, op)
			}
			if nanos >= 1e9 {
				return fmt.Errorf("snapshot: scan %d claims %d nanoseconds", k, nanos)
			}
			if k > 0 && sec64 < prevSec {
				return fmt.Errorf("snapshot: scan metadata out of chronological order at scan %d", k)
			}
			prevSec = sec64
			total += uint64(cnt)
		}
		if total != lay.ObsCount {
			return fmt.Errorf("snapshot: scan metadata counts %d observations, header claims %d", total, lay.ObsCount)
		}
	}
	if sum := sha256SectionSum(keys, post); sum != sec.Sum {
		return fmt.Errorf("snapshot: index section %d checksum mismatch", i)
	}
	return nil
}

// sha256SectionSum hashes a section's keys and postings as one stream, the
// digest stored in its index-table entry.
func sha256SectionSum(keys, post []byte) [32]byte {
	h := sha256.New()
	h.Write(keys)
	h.Write(post)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// V3ScanMeta is one decoded scan-metadata entry.
type V3ScanMeta struct {
	Operator uint32
	Time     time.Time
	ObsCount uint32
}

// ScanMetaAt decodes entry k of a validated scan-metadata section.
func ScanMetaAt(keys []byte, k int) V3ScanMeta {
	e := keys[k*V3ScanMetaEntry:]
	return V3ScanMeta{
		Operator: binary.LittleEndian.Uint32(e[0:]),
		Time: time.Unix(int64(binary.LittleEndian.Uint64(e[8:])),
			int64(binary.LittleEndian.Uint32(e[4:]))).UTC(),
		ObsCount: binary.LittleEndian.Uint32(e[16:]),
	}
}

// InternetASOf adapts a netsim Internet into the Options.ASOf shape, so
// writers with a network model annotate the AS index. A nil Internet returns
// nil (no AS index).
func InternetASOf(inet *netsim.Internet) func(netsim.IP, time.Time) (int, bool) {
	if inet == nil {
		return nil
	}
	return func(ip netsim.IP, at time.Time) (int, bool) {
		as := inet.Lookup(ip, at)
		if as == nil {
			return 0, false
		}
		return as.ASN, true
	}
}
