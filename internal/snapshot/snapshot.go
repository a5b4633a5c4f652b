// Package snapshot is the on-disk corpus format, snapshot v3: a sharded,
// columnar, checksummed container of certificates and scans followed by
// five point-lookup index sections. The paper's pipeline front-loads all of
// its cost into corpus I/O — 222 full-IPv4 scans and ~80M certificates must
// be loaded, parsed and indexed before any analysis runs — while its
// applications (§6 linking, §7 tracking) ask point questions of one large
// corpus. The format is built around four ideas:
//
//   - Sharding. Certificates and scans are split into fixed-size shards,
//     each independently gzip-compressed and SHA-256-checksummed, so encode
//     compresses shards on up to Options.Workers goroutines and decode fans
//     out across internal/parallel workers. Decode re-parses each shard's
//     DERs inside its own worker, which is where the wall-clock goes
//     (ParsEval: parse cost dominates certificate churn).
//
//   - Columns. Within a shard, like data sits together: certificate lengths,
//     then DER bytes, then digests; scan metadata, then certificate-ID
//     deltas, then IP deltas. Observations are varint delta-encoded per scan
//     (consecutive sightings cluster in address space), which keeps the
//     uncompressed observation stream small — less to decompress, less to
//     decode.
//
//   - Indexes. Fixed-width, sorted key arrays after the payloads answer
//     fingerprint, SPKI, IP and AS lookups plus per-scan metadata without
//     decoding a shard (see v3.go); internal/querystore serves them from a
//     mapped file.
//
//   - Distrust. Every shard and index section carries a SHA-256 and the
//     header carries a SHA-256 of itself, so truncation, bit rot and hostile
//     edits fail with explicit errors instead of panics or OOM; decode
//     enforces hard caps on every length field before allocating.
//
// Layout (all header integers little-endian; see DESIGN.md "Snapshot
// format v3" for the byte-level story):
//
//	magic        [8]byte  "SPKISNP3"
//	certCount    uint64
//	scanCount    uint64
//	obsCount     uint64
//	certShards   uint32
//	scanShards   uint32
//	idxSections  uint32   must equal V3SectionCount
//	reserved     uint32   must be zero
//	shard table: certShards entries, then scanShards entries, each
//	  first      uint64   first certificate / scan index in the shard
//	  count      uint64   number of certificates / scans
//	  rawLen     uint64   uncompressed payload length
//	  compLen    uint64   compressed payload length
//	  sum        [32]byte SHA-256 of the compressed payload
//	index table: idxSections entries (see v3.go)
//	headerSum    [32]byte SHA-256 of everything above
//	payloads, concatenated in table order
//	zero padding to the next 8-byte file offset
//	per section, in table order: keys, postings, zero padding to 8 bytes
//
// Certificate shard payload (uncompressed): count uvarint DER lengths, the
// concatenated DER bytes, then count 32-byte SHA-256 digests. The stored
// digest feeds x509lite.ParseWithDigest so loading skips re-hashing every
// certificate; the shard checksum owns integrity.
//
// Scan shard payload: per scan — uvarint operator, varint unix-seconds
// delta from the previous scan in the shard (first scan absolute), uvarint
// nanoseconds, uvarint observation count — then the certificate-ID column
// (varint deltas, resetting to a zero base at each scan boundary), then the
// IP column (same scheme). Times are normalised to UTC on load.
//
// There is one encoder, StreamWriter: certificates and sightings stream
// into it, it compresses each shard as the shard fills, keeps what it
// buffers in memory-first spills bounded by a budget, and builds the index
// sections from per-certificate and per-sighting input. WriteV3 feeds it a
// resident corpus (StreamCorpus); the streaming build feeds it scan results
// chunk by chunk; Read feeds the same section builder from a decoded corpus
// to check a file's indexes against its payloads. The output is
// byte-identical at any worker count or budget: shard boundaries depend
// only on the data and the per-shard sizing knobs, and workers change
// nothing but which goroutine compresses which shard.
package snapshot

import (
	"compress/gzip"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/obs"
)

// Format caps, enforced by the writer and (distrustfully) by the reader.
const (
	// MaxCertDER bounds a single certificate's DER encoding. The corpus's
	// real certificates are a few hundred bytes; 16 MiB is generous for any
	// legitimate input and small enough to make absurd-length headers an
	// explicit error instead of an allocation.
	MaxCertDER = 1 << 24
	// maxShardRaw bounds one shard's uncompressed payload.
	maxShardRaw = 1 << 30
	// maxExpansion bounds the claimed decompression ratio of a shard,
	// rejecting gzip bombs before inflating them.
	maxExpansion = 1 << 14
	// maxShards bounds the shard table.
	maxShards = 1 << 16
	// maxCerts and maxScans mirror the int32 index types in scanstore.
	maxCerts = 1<<31 - 1
	maxScans = 1<<31 - 1
)

// shardCompression is the gzip level for shard payloads. BestSpeed keeps the
// write path fast (snapshotting must not dominate a scan campaign, the "Ten
// Years of ZMap" lesson) and costs only a few percent of size on this data.
const shardCompression = gzip.BestSpeed

// Options tunes encode/decode. The zero value is ready to use.
type Options struct {
	// Workers bounds the encode/decode worker pool; <= 0 means GOMAXPROCS.
	// Output bytes and the loaded corpus are identical at any setting.
	Workers int
	// CertsPerShard is the certificate-shard granularity (default 2048).
	CertsPerShard int
	// ScansPerShard is the scan-shard granularity (default 4).
	ScansPerShard int
	// VerifyDigests makes Read recompute every certificate's SHA-256 and
	// compare it against the stored digest column. The plain checksums
	// detect accidental corruption only, not tampering: an attacker who can
	// rewrite the file rewrites the digest column and the shard/header
	// checksums to match, installing forged fingerprints that skew dedup
	// and key-sharing analyses. Enable this when loading a snapshot from an
	// untrusted source; leave it off for snapshots you produced yourself,
	// where re-hashing every DER only slows the load.
	VerifyDigests bool
	// ASOf resolves an IP to its announcing AS number at a point in time;
	// WriteV3 uses it to build the AS → cert-set index (scangen passes the
	// simulated Internet's Lookup). nil writes an empty AS section — v3 files
	// produced without a network model simply answer no AS queries. The other
	// index sections never depend on it. Ignored by Read.
	ASOf func(ip netsim.IP, at time.Time) (asn int, ok bool)
	// Obs receives codec metrics (snapshot.encode.* / snapshot.decode.*:
	// per-shard raw/compressed byte counts, inflate ratios, digest-verify
	// counts). nil disables instrumentation. Every snapshot.* metric is a
	// pure function of the data and the sizing knobs — shard boundaries
	// never depend on Workers — so they are part of the byte-stable set.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.CertsPerShard <= 0 {
		o.CertsPerShard = 2048
	}
	if o.ScansPerShard <= 0 {
		o.ScansPerShard = 4
	}
	return o
}
