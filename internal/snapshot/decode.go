package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"securepki/internal/netsim"
	"securepki/internal/parallel"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// tableEntry is the byte length of one shard-table entry.
const tableEntry = 4*8 + 32

// inflateRatioBounds buckets rawLen*100/compLen per decoded shard; this data
// compresses a few-fold, so percent buckets run 1x..50x.
var inflateRatioBounds = []int64{100, 150, 200, 300, 500, 1000, 2000, 5000}

// decodeShards fans the read, check, decompression and column decode of
// every shard out over the worker pool: each worker reads its shard's
// payload, puts it through V3Shard.Inflate, splits the columns and, for
// certificate shards, re-parses every DER.
func decodeShards(ra io.ReaderAt, lay *V3Layout, opt Options) ([][]*x509lite.Certificate, [][]decodedScan, error) {
	nShards := len(lay.Shards)
	certShards := int(lay.CertShards)
	certParts := make([][]*x509lite.Certificate, certShards)
	scanParts := make([][]decodedScan, nShards-certShards)
	errs := make([]error, nShards)
	parallel.ForEach(opt.Workers, nShards, func(i int) {
		sh := lay.Shards[i]
		comp, err := readAt(ra, sh.Off, int64(sh.CompLen))
		if err != nil {
			errs[i] = fmt.Errorf("snapshot: shard %d payload: %w", i, err)
			return
		}
		raw, err := sh.Inflate(comp)
		if err != nil {
			errs[i] = fmt.Errorf("snapshot: shard %d: %w", i, err)
			return
		}
		// Byte counts and ratios are pure functions of the file bytes.
		opt.Obs.Counter("snapshot.decode.raw_bytes").Add(int64(len(raw)))
		opt.Obs.Counter("snapshot.decode.comp_bytes").Add(int64(len(comp)))
		if len(comp) > 0 {
			opt.Obs.Histogram("snapshot.decode.inflate_ratio_pct", inflateRatioBounds).
				Observe(int64(len(raw)) * 100 / int64(len(comp)))
		}
		if i < certShards {
			certs, err := decodeCertShard(raw, int(sh.Count), opt.VerifyDigests, 1)
			if err != nil {
				errs[i] = fmt.Errorf("snapshot: cert shard %d: %w", i, err)
				return
			}
			certParts[i] = certs
			if opt.VerifyDigests {
				opt.Obs.Counter("snapshot.decode.digest_verify").Add(int64(sh.Count))
			}
		} else {
			scans, err := decodeScanShard(raw, int(sh.Count), lay.CertCount)
			if err != nil {
				errs[i] = fmt.Errorf("snapshot: scan shard %d: %w", i, err)
				return
			}
			scanParts[i-certShards] = scans
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return certParts, scanParts, nil
}

// assembleCorpus interns certificates and appends scans serially in shard
// order, keeping IDs and scan order deterministic, then cross-checks the
// header's observation count against what the shards actually carried.
func assembleCorpus(certParts [][]*x509lite.Certificate, scanParts [][]decodedScan, obsCount uint64) (*scanstore.Corpus, error) {
	c := scanstore.NewCorpus()
	idx := 0
	for _, part := range certParts {
		for _, cert := range part {
			if got := c.Intern(cert); int(got) != idx {
				return nil, fmt.Errorf("snapshot: duplicate certificate at index %d", idx)
			}
			idx++
		}
	}
	var totalObs uint64
	for _, part := range scanParts {
		for _, ds := range part {
			totalObs += uint64(len(ds.obs))
			if _, err := c.AddScan(ds.op, ds.at, ds.obs); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
		}
	}
	if totalObs != obsCount {
		return nil, fmt.Errorf("snapshot: header claims %d observations, shards carry %d", obsCount, totalObs)
	}
	return c, nil
}

// checkTiling verifies that shard ranges cover [0, total) in order with no
// gaps or overlaps.
func checkTiling(shards []V3Shard, total uint64, kind string) error {
	var next uint64
	for i, sh := range shards {
		if sh.First != next {
			return fmt.Errorf("snapshot: %s shard %d starts at %d, want %d", kind, i, sh.First, next)
		}
		if sh.Count == 0 {
			return fmt.Errorf("snapshot: %s shard %d is empty", kind, i)
		}
		next += sh.Count
		if next > total {
			return fmt.Errorf("snapshot: %s shards overrun count %d", kind, total)
		}
	}
	if next != total {
		return fmt.Errorf("snapshot: %s shards cover %d of %d", kind, next, total)
	}
	return nil
}

// decodeCertShard splits the three certificate columns and parses every
// DER across workers, adopting the stored digests (verify first compares
// each against its DER). An error names the lowest-indexed certificate that
// failed, at any worker count.
func decodeCertShard(raw []byte, count int, verify bool, workers int) ([]*x509lite.Certificate, error) {
	// Every certificate occupies at least one length byte plus its 32-byte
	// digest, so a count the payload cannot back is rejected before any
	// count-sized allocation happens.
	if uint64(count)*33 > uint64(len(raw)) {
		return nil, fmt.Errorf("payload of %d bytes cannot hold %d certificates", len(raw), count)
	}
	offs := make([]int, count+1) // DER i is offs[i]:offs[i+1] of the DER column
	off := 0
	var total uint64
	for i := range count {
		v, n := binary.Uvarint(raw[off:])
		if n <= 0 {
			return nil, fmt.Errorf("length column truncated at cert %d", i)
		}
		if v == 0 || v > MaxCertDER {
			return nil, fmt.Errorf("cert %d claims %d DER bytes, cap %d", i, v, MaxCertDER)
		}
		total += v
		offs[i+1] = int(total)
		off += n
	}
	if uint64(len(raw)-off) != total+uint64(count)*32 {
		return nil, fmt.Errorf("columns carry %d bytes, want %d DER + %d digest", len(raw)-off, total, count*32)
	}
	ders := raw[off : off+int(total)]
	fps := raw[off+int(total):]
	certs := make([]*x509lite.Certificate, count)
	errs := make([]error, count)
	parallel.ForEach(workers, count, func(i int) {
		der, fp := ders[offs[i]:offs[i+1]], x509lite.Fingerprint(fps[i*32:])
		if verify {
			if got := x509lite.FingerprintBytes(der); got != fp {
				errs[i] = fmt.Errorf("cert %d digest mismatch: stored %s, computed %s", i, fp, got)
				return
			}
		}
		var err error
		if certs[i], err = x509lite.ParseWithDigest(der, fp); err != nil {
			errs[i] = fmt.Errorf("cert %d: %w", i, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return certs, nil
}

// decodedScan is one scan reconstructed from the columns, pending AddScan.
type decodedScan struct {
	op  scanstore.Operator
	at  time.Time
	obs []scanstore.Observation
}

// decodeScanShard reads the metadata column then the two delta columns.
func decodeScanShard(raw []byte, count int, certCount uint64) ([]decodedScan, error) {
	// Each scan occupies at least four metadata bytes; reject counts the
	// payload cannot back before allocating anything count-sized.
	if uint64(count)*4 > uint64(len(raw)) {
		return nil, fmt.Errorf("payload of %d bytes cannot hold %d scans", len(raw), count)
	}
	scans := make([]decodedScan, count)
	obsCounts := make([]uint64, count)
	off := 0
	uv := func(what string, i int) (uint64, error) {
		v, n := binary.Uvarint(raw[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%s column truncated at scan %d", what, i)
		}
		off += n
		return v, nil
	}
	sv := func(what string, i int) (int64, error) {
		v, n := binary.Varint(raw[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%s column truncated at scan %d", what, i)
		}
		off += n
		return v, nil
	}
	prevSec := int64(0)
	var totalObs uint64
	for i := range scans {
		op, err := uv("operator", i)
		if err != nil {
			return nil, err
		}
		if op > 1<<20 {
			return nil, fmt.Errorf("scan %d operator %d is absurd", i, op)
		}
		delta, err := sv("time", i)
		if err != nil {
			return nil, err
		}
		sec := prevSec + delta // the first scan's delta is absolute (base 0)
		prevSec = sec
		nanos, err := uv("nanos", i)
		if err != nil {
			return nil, err
		}
		if nanos >= 1e9 {
			return nil, fmt.Errorf("scan %d claims %d nanoseconds", i, nanos)
		}
		nObs, err := uv("obs count", i)
		if err != nil {
			return nil, err
		}
		// Each observation needs at least one byte per delta column, so any
		// single claim past half the payload is a lie. Bounding every term
		// before accumulating also keeps the running total from wrapping
		// uint64 under the cap below (each side is <= len(raw)/2, so their
		// sum cannot overflow) and from reaching the make() call.
		if nObs > uint64(len(raw))/2 {
			return nil, fmt.Errorf("scan %d claims %d observations in a %d-byte payload", i, nObs, len(raw))
		}
		totalObs += nObs
		if totalObs > uint64(len(raw))/2 {
			return nil, fmt.Errorf("payload of %d bytes cannot hold %d observations", len(raw), totalObs)
		}
		scans[i] = decodedScan{
			op: scanstore.Operator(op),
			at: time.Unix(sec, int64(nanos)).UTC(),
		}
		obsCounts[i] = nObs
	}
	if uint64(len(raw)-off) < 2*totalObs {
		return nil, fmt.Errorf("delta columns carry %d bytes for %d observations", len(raw)-off, totalObs)
	}
	for i := range scans {
		scans[i].obs = make([]scanstore.Observation, obsCounts[i])
	}
	for i := range scans {
		prev := int64(0)
		for j := range scans[i].obs {
			d, err := sv("cert delta", i)
			if err != nil {
				return nil, err
			}
			id := prev + d
			if id < 0 || uint64(id) >= certCount {
				return nil, fmt.Errorf("scan %d observation %d references cert %d of %d", i, j, id, certCount)
			}
			prev = id
			scans[i].obs[j].Cert = scanstore.CertID(id)
		}
	}
	for i := range scans {
		prev := int64(0)
		for j := range scans[i].obs {
			d, err := sv("ip delta", i)
			if err != nil {
				return nil, err
			}
			ip := prev + d
			if ip < 0 || ip > 0xffffffff {
				return nil, fmt.Errorf("scan %d observation %d IP %d outside IPv4", i, j, ip)
			}
			prev = ip
			scans[i].obs[j].IP = netsim.IP(uint32(ip))
		}
	}
	if off != len(raw) {
		return nil, fmt.Errorf("%d trailing bytes after columns", len(raw)-off)
	}
	return scans, nil
}
