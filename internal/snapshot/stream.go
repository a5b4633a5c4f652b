package snapshot

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"errors"
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

// StreamWriter is the snapshot encoder: it emits a snapshot from
// certificates and observations that arrive incrementally — Intern as
// certificates are first seen (in global scan-major order), AddObs per
// sighting — so no resident corpus is needed; WriteV3 feeds it from one
// (StreamCorpus).
//
// Memory stays bounded. A certificate shard is handed to one of the
// writer's compressors as its CertsPerShard-th certificate arrives, and a
// scan shard as its ScansPerShard-th scan ends; compressed shards join the
// certificate or scan payload in shard order, each written once. The writer
// builds its compressors as shards first need them, as many as its budget
// has room for (at least one, at most Options.Workers), and drops them once
// the last shard lands. A
// certificate shard holds the DERs it was handed, not copies, until it
// lands. The payloads, the per-scan observation columns and the index
// section arrays are memory-first spills that move to disk only past their
// share of the budget, and the IP/AS sightings accumulate in external-merge
// sorters.
// What stays resident is per-certificate constant-size state (fingerprint,
// SPKI, DER location — the index needs it anyway) and the fingerprint
// dedup map of Intern's callers. The sections build while the last scan
// shards compress, and Finish then drops all that only encoding needs but
// the certificate payload, which Certs reads back for a lint pass.
//
// The output is byte-identical at any worker count, memory budget or
// spill directory: shard boundaries come from the sizing knobs alone, and
// every index section is emitted in a total order over the data.
type StreamWriter struct {
	opt    Options
	cfg    StreamWriterConfig
	budget int64 // MemBudget, defaulted

	idx  *sectionBuilder
	byFP map[x509lite.Fingerprint]scanstore.CertID // Intern's dedup; nil until its first call

	pendDERs [][]byte // the certificate shard being filled: its DERs, as handed in

	inflight         []*shardJob    // shards compressing, in submission order
	compressors      int            // how many compressors the writer keeps, so shards in flight
	idle             []*gzip.Writer // built compressors no shard in flight holds
	certPay, scanPay payload
	certShards       int // certificate shards handed to compressors so far

	cols      []*scanCols // per scan, ScanID order
	scansDone int         // scans already laid out in scan shards
	colCap    int64       // each observation column's in-memory share
	spilled   int64       // bytes of laid-out observation columns on disk

	// The current scan's delta bases, and varints batched on their way to
	// its columns.
	prevC, prevIP    int64
	certVars, ipVars []byte

	err error
}

// StreamWriterConfig sizes the writer's memory envelope.
type StreamWriterConfig struct {
	// SpillDir hosts every spill file ("" = OS temp).
	SpillDir string
	// MemBudget bounds what the writer buffers in memory (<= 0 means
	// extsort.DefaultMemBudget): the IP and AS sorters take three
	// sixteenths of it each, all of it for records, since they sort in
	// place; the certificate and scan payloads and the observation columns
	// an eighth each, and the ten section arrays share another eighth;
	// beyond its share each spills to disk. The shard compressors take the
	// last eighth: as many as fit at compressorBytes (~1.2 MB) each, but at
	// least one and at most Workers, and as many shards are in flight at
	// once. So a budget under ~9.6 MB, such as 2 or 4 MiB, keeps one
	// compressor that its eighth has no room for, and the default keeps
	// Workers (up to 27).
	// The columns' eighth covers the open scan shard and up to Workers scan
	// shards in flight, 2·ScansPerShard columns each, so a column holds at
	// most an eighth of the budget over 2·ScansPerShard·(1+Workers) in
	// memory before it spills; with fewer compressors than Workers fewer
	// shards are in flight, and that bound still holds. Outside the budget
	// stay the per-certificate state, the DERs of the certificate shard
	// being filled and of the shards in flight (the caller's own buffers,
	// which the writer only references), each in-flight shard's other parts
	// (a certificate shard's length column, a scan shard's metadata column)
	// and the 64 KiB blocks its compressed bytes fill until its payload
	// takes them, the current scan's batched varints and, once its columns
	// spill, their 64 KiB write buffers, and, while Finish merges the
	// sorters, a 4 KiB read buffer per spilled run. Finish drops the
	// compressors once the last shard lands and releases all the rest but
	// the certificate payload's eighth, the certificate shard table and the
	// per-certificate fingerprint and SPKI, which leaves the other seven
	// eighths to a lint pass that follows (core.StreamSnapshot gives four of
	// them to the LintColumnWriter's run buffer).
	MemBudget int64
}

// payload is one kind of shard's compressed bytes and table rows (Off
// unset), in shard order: certificate shards precede scan shards in the
// file.
type payload struct {
	data *extsort.SpillFile
	tab  []V3Shard
}

// shardJob is one shard on its way through its compressor zw to dst. The
// goroutine that compresses it fills blocks, entry.CompLen, entry.Sum and
// err, then closes done; zw goes back to the writer when the shard lands.
type shardJob struct {
	dst    *payload
	entry  V3Shard
	zw     *gzip.Writer
	blocks [][]byte // the compressed shard
	err    error
	done   chan struct{}
}

// scanCols is one scan's two delta-encoded observation columns.
type scanCols struct{ cert, ip *extsort.SpillFile }

// varBatch is how many varint bytes AddObs batches per column before one
// SpillFile write, which spares every sighting two of them.
const varBatch = 4 << 10

// colSpillThreshold caps each observation column's in-memory share below
// what the budget gives it. It is a variable only so tests can shrink it to
// force the spill path.
var colSpillThreshold = math.MaxInt

// NewStreamWriter prepares an empty streaming writer. It creates no file:
// each spill moves to cfg.SpillDir only when it outgrows its memory share.
func NewStreamWriter(opt Options, cfg StreamWriterConfig) (*StreamWriter, error) {
	opt = opt.withDefaults()
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = extsort.DefaultMemBudget
	}
	workers := parallel.Workers(opt.Workers)
	sw := &StreamWriter{
		opt:         opt,
		cfg:         cfg,
		budget:      budget,
		compressors: int(min(max(budget/8/compressorBytes, 1), int64(workers))),
		colCap:      min(budget/8/int64(2*opt.ScansPerShard*(1+workers)), int64(colSpillThreshold)),
	}
	sw.certPay.data = extsort.NewSpillFile(cfg.SpillDir, "snapshot-payload-*.spill", budget/8)
	sw.scanPay.data = extsort.NewSpillFile(cfg.SpillDir, "snapshot-payload-*.spill", budget/8)
	var err error
	if sw.idx, err = newSectionBuilder(opt.ASOf, budget*3/16, cfg.SpillDir); err != nil {
		return nil, err
	}
	return sw, nil
}

// NumCerts returns how many distinct certificates have been interned.
func (sw *StreamWriter) NumCerts() int { return len(sw.idx.fps) }

// Intern deduplicates one certificate by fingerprint, appending it to the
// table (and the pending cert shard) when new. The writer keeps der, not a
// copy, until the certificate's shard lands, so the caller must not modify
// it. Returns the ID and whether the cert was new.
func (sw *StreamWriter) Intern(der []byte, fp, spki x509lite.Fingerprint) (scanstore.CertID, bool, error) {
	if sw.err != nil {
		return 0, false, sw.err
	}
	if id, ok := sw.byFP[fp]; ok {
		return id, false, nil
	}
	id, err := sw.add(der, fp, spki)
	if err != nil {
		return 0, false, err
	}
	if sw.byFP == nil {
		sw.byFP = make(map[x509lite.Fingerprint]scanstore.CertID)
	}
	sw.byFP[fp] = id
	return id, true, nil
}

// add appends a certificate that is not yet in the table to it and to the
// pending cert shard, which keeps der until it lands.
func (sw *StreamWriter) add(der []byte, fp, spki x509lite.Fingerprint) (scanstore.CertID, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	n := len(sw.idx.fps)
	if len(der) == 0 || len(der) > MaxCertDER {
		return 0, sw.fail(fmt.Errorf("snapshot: cert %d DER length %d outside (0, %d]", n, len(der), MaxCertDER))
	}
	if n >= maxCerts {
		return 0, sw.fail(fmt.Errorf("snapshot: %d certificates exceed format cap", n+1))
	}
	sw.idx.addCert(fp, spki)
	if sw.pendDERs == nil {
		sw.pendDERs = make([][]byte, 0, sw.opt.CertsPerShard)
	}
	sw.pendDERs = append(sw.pendDERs, der)
	if len(sw.pendDERs) >= sw.opt.CertsPerShard {
		if err := sw.flushCertShard(); err != nil {
			return 0, sw.fail(err)
		}
	}
	return scanstore.CertID(n), nil
}

// BeginScan opens the next scan (chronological, like Corpus.AddScan); all
// following AddObs calls belong to it.
func (sw *StreamWriter) BeginScan(op scanstore.Operator, at time.Time) error {
	if sw.err != nil {
		return sw.err
	}
	scans := sw.idx.scans
	if len(scans) >= maxScans {
		return sw.fail(fmt.Errorf("snapshot: %d scans exceed format cap", len(scans)+1))
	}
	if int64(op) < 0 || int64(op) > 1<<20 {
		return sw.fail(fmt.Errorf("snapshot: scan %d operator %d outside format range", len(scans), op))
	}
	if n := len(scans); n > 0 && at.Before(scans[n-1].at) {
		return sw.fail(fmt.Errorf("snapshot: scan at %v begun after %v", at, scans[n-1].at))
	}
	if err := sw.endScan(); err != nil {
		return sw.fail(err)
	}
	if len(scans)-sw.scansDone == sw.opt.ScansPerShard {
		if err := sw.flushScanShard(); err != nil {
			return sw.fail(err)
		}
	}
	sw.prevC, sw.prevIP = 0, 0 // deltas restart at each scan
	sw.idx.beginScan(op, at)
	sw.cols = append(sw.cols, &scanCols{
		cert: extsort.NewSpillFile(sw.cfg.SpillDir, "snapshot-col-*.spill", sw.colCap),
		ip:   extsort.NewSpillFile(sw.cfg.SpillDir, "snapshot-col-*.spill", sw.colCap),
	})
	return nil
}

// AddObs records one sighting of an interned certificate in the current
// scan. Sightings must arrive in the corpus's observation order (global
// host order): the observation columns keep it.
func (sw *StreamWriter) AddObs(id scanstore.CertID, ip netsim.IP) error {
	if sw.err != nil {
		return sw.err
	}
	if len(sw.cols) == 0 {
		return sw.fail(fmt.Errorf("snapshot: AddObs before BeginScan"))
	}
	if int(id) < 0 || int(id) >= len(sw.idx.fps) {
		return sw.fail(fmt.Errorf("snapshot: observation of unknown cert %d", id))
	}
	scan := len(sw.cols) - 1
	if n := sw.idx.scans[scan].count; n >= math.MaxUint32 {
		return sw.fail(fmt.Errorf("snapshot: scan %d has %d observations, cap %d", scan, n+1, uint32(math.MaxUint32)))
	}
	sw.certVars = binary.AppendVarint(sw.certVars, int64(id)-sw.prevC)
	sw.ipVars = binary.AppendVarint(sw.ipVars, int64(ip)-sw.prevIP)
	sw.prevC, sw.prevIP = int64(id), int64(ip)
	if len(sw.certVars) >= varBatch || len(sw.ipVars) >= varBatch {
		if err := sw.flushVars(); err != nil {
			return sw.fail(err)
		}
	}
	if err := sw.idx.addSighting(ip, id); err != nil {
		return sw.fail(err)
	}
	return nil
}

// flushVars moves the batched varints into the current scan's columns.
func (sw *StreamWriter) flushVars() error {
	if len(sw.cols) == 0 {
		return nil
	}
	c := sw.cols[len(sw.cols)-1]
	c.cert.Write(sw.certVars)
	_, err := c.ip.Write(sw.ipVars)
	sw.certVars, sw.ipVars = sw.certVars[:0], sw.ipVars[:0]
	return err
}

// endScan moves the current scan's batched varints into its columns and
// seals them, so a column that spilled drops its write buffer while it
// waits for its shard.
func (sw *StreamWriter) endScan() error {
	if err := sw.flushVars(); err != nil || len(sw.cols) == 0 {
		return err
	}
	c := sw.cols[len(sw.cols)-1]
	c.cert.Seal()
	return c.ip.Seal()
}

// MergeFanIn reports the widest k-way merge Finish will perform across the
// index sorters.
func (sw *StreamWriter) MergeFanIn() int { return sw.idx.fanIn() }

func (sw *StreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// flushCertShard records the pending certificate shard's DER locations for
// the fingerprint index and hands its columns to a compressor. The shard
// takes the pending DERs with it.
func (sw *StreamWriter) flushCertShard() error {
	count := len(sw.pendDERs)
	if count == 0 {
		return nil
	}
	first := len(sw.idx.fps) - count
	lenColLen, derLen := sw.idx.placeShard(uint32(sw.certShards), sw.pendDERs)
	sw.certShards++
	lenCol := appendLenCol(make([]byte, 0, lenColLen), sw.pendDERs)
	ders, fps := sw.pendDERs, sw.idx.fps[first:]
	sw.pendDERs = nil
	rawLen := len(lenCol) + derLen + 32*len(fps)
	return sw.compress(&sw.certPay, first, count, rawLen, func(w io.Writer) error {
		return writeCertShard(w, lenCol, ders, fps)
	})
}

// flushScanShard hands the scans not yet in a shard to a compressor as the
// next scan shard: their metadata column, then their certificate-ID and IP
// columns, which the compressor reads in place and then releases.
func (sw *StreamWriter) flushScanShard() error {
	lo, hi := sw.scansDone, len(sw.cols)
	if lo == hi {
		return nil
	}
	meta := appendScanMeta(make([]byte, 0, (hi-lo)*4*binary.MaxVarintLen64), sw.idx.scans[lo:hi])
	cols := sw.cols[lo:hi]
	rawLen := len(meta)
	for _, c := range cols {
		rawLen += int(c.cert.Len() + c.ip.Len())
		sw.spilled += onDisk(c.cert, c.ip)
	}
	sw.scansDone = hi
	return sw.compress(&sw.scanPay, lo, hi-lo, rawLen, func(w io.Writer) error {
		if _, err := w.Write(meta); err != nil {
			return err
		}
		for _, c := range cols {
			if err := c.cert.VerifyCopy(w); err != nil {
				return err
			}
		}
		for _, c := range cols {
			if err := c.ip.VerifyCopy(w); err != nil {
				return err
			}
		}
		for _, c := range cols {
			c.cert.Remove()
			c.ip.Remove()
		}
		return nil
	})
}

// compress starts one shard compressing on its own goroutine, first landing
// the oldest in-flight shard when every compressor is busy, so memory and
// CPU stay bounded and each payload stays in shard order. write produces
// the shard's rawLen uncompressed bytes.
func (sw *StreamWriter) compress(dst *payload, first, count, rawLen int, write func(io.Writer) error) error {
	if len(sw.inflight) >= sw.compressors {
		if err := sw.land(); err != nil {
			return err
		}
	}
	// Each shard in flight holds one compressor, so one is idle or may
	// still be built.
	var zw *gzip.Writer
	if n := len(sw.idle); n > 0 {
		zw, sw.idle = sw.idle[n-1], sw.idle[:n-1]
	} else {
		var err error
		if zw, err = gzip.NewWriterLevel(nil, shardCompression); err != nil {
			return err
		}
	}
	job := &shardJob{
		dst:   dst,
		entry: V3Shard{First: uint64(first), Count: uint64(count), RawLen: uint64(rawLen)},
		zw:    zw,
		done:  make(chan struct{}),
	}
	sw.inflight = append(sw.inflight, job)
	go func() {
		defer close(job.done)
		if job.blocks, job.err = gzipShard(job.zw, write); job.err != nil {
			return
		}
		h := sha256.New()
		for _, b := range job.blocks {
			h.Write(b)
			job.entry.CompLen += uint64(len(b))
		}
		h.Sum(job.entry.Sum[:0])
	}()
	return nil
}

// land waits for the oldest in-flight shard, takes its compressor back and
// hands its blocks to its payload.
func (sw *StreamWriter) land() error {
	job := sw.inflight[0]
	<-job.done
	sw.inflight[0] = nil
	sw.inflight = sw.inflight[1:]
	sw.idle = append(sw.idle, job.zw)
	if job.err != nil {
		return fmt.Errorf("snapshot: compress shard: %w", job.err)
	}
	for _, b := range job.blocks {
		if _, err := job.dst.data.WriteBlock(b); err != nil {
			return err
		}
	}
	job.dst.tab = append(job.dst.tab, job.entry)
	return nil
}

// Finish flushes everything, writes the complete snapshot to w and
// releases the encode-only state. The writer remains readable (Certs, SPKI,
// NumCerts) but accepts no further data.
func (sw *StreamWriter) Finish(w io.Writer) error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.flushCertShard(); err != nil {
		return sw.fail(err)
	}

	// The index sections build while the scan shards compress.
	var keys, posts [V3SectionCount]*extsort.SpillFile
	var out [V3SectionCount]sectionOut
	for i := range out {
		keys[i] = extsort.NewSpillFile(sw.cfg.SpillDir, "snapshot-keys-*.spill", sw.budget/80)
		posts[i] = extsort.NewSpillFile(sw.cfg.SpillDir, "snapshot-post-*.spill", sw.budget/80)
		defer keys[i].Remove()
		defer posts[i].Remove()
		out[i] = sectionOut{keys: keys[i], post: posts[i]}
	}
	built := make(chan error, 1)
	go func() { built <- sw.idx.build(sw.opt.Workers, out) }()
	err := sw.endScan()
	if err == nil {
		err = sw.flushScanShard()
	}
	for err == nil && len(sw.inflight) > 0 {
		err = sw.land()
	}
	sw.idle = nil // the last shard has landed
	if berr := <-built; err == nil {
		err = berr
	}
	if err != nil {
		return sw.fail(err)
	}
	shardTab := append(sw.certPay.tab[:len(sw.certPay.tab):len(sw.certPay.tab)], sw.scanPay.tab...)
	if len(shardTab) > maxShards {
		return sw.fail(fmt.Errorf("snapshot: %d shards exceed format cap %d; raise CertsPerShard/ScansPerShard",
			len(shardTab), maxShards))
	}
	var obsCount uint64
	for _, s := range sw.idx.scans {
		obsCount += s.count
	}
	spilled := sw.spilled + sw.idx.spilledBytes() + onDisk(sw.certPay.data, sw.scanPay.data)
	for i := range keys {
		spilled += onDisk(keys[i], posts[i])
	}

	var head bytes.Buffer
	head.WriteString(MagicV3)
	putU64(&head, uint64(len(sw.idx.fps)))
	putU64(&head, uint64(len(sw.idx.scans)))
	putU64(&head, obsCount)
	putU32(&head, uint32(len(sw.certPay.tab)))
	putU32(&head, uint32(len(sw.scanPay.tab)))
	putU32(&head, V3SectionCount)
	putU32(&head, 0) // reserved
	for _, sh := range shardTab {
		putU64(&head, sh.First)
		putU64(&head, sh.Count)
		putU64(&head, sh.RawLen)
		putU64(&head, sh.CompLen)
		head.Write(sh.Sum[:])
	}
	var indexBytes int64
	for i := range keys {
		kind := uint32(i + 1)
		h := sha256.New()
		if err := keys[i].VerifyCopy(h); err != nil {
			return sw.fail(err)
		}
		if err := posts[i].VerifyCopy(h); err != nil {
			return sw.fail(err)
		}
		putU32(&head, kind)
		putU32(&head, v3EntrySize(kind))
		putU64(&head, uint64(keys[i].Len())/uint64(v3EntrySize(kind)))
		putU64(&head, uint64(posts[i].Len()))
		putU64(&head, 0) // reserved
		head.Write(h.Sum(nil))
		indexBytes += keys[i].Len() + posts[i].Len()
	}
	headSum := sha256.Sum256(head.Bytes())
	head.Write(headSum[:])
	if _, err := w.Write(head.Bytes()); err != nil {
		return sw.fail(fmt.Errorf("snapshot: write header: %w", err))
	}
	for _, pay := range []payload{sw.certPay, sw.scanPay} {
		if err := pay.data.VerifyCopy(w); err != nil {
			return sw.fail(fmt.Errorf("snapshot: write payload: %w", err))
		}
	}
	off := int64(head.Len()) + sw.certPay.data.Len() + sw.scanPay.data.Len()
	var zeros [8]byte
	writePad := func() error {
		n := pad8(off)
		if n == 0 {
			return nil
		}
		off += n
		_, err := w.Write(zeros[:n])
		return err
	}
	if err := writePad(); err != nil {
		return sw.fail(fmt.Errorf("snapshot: write padding: %w", err))
	}
	for i := range keys {
		if err := keys[i].VerifyCopy(w); err != nil {
			return sw.fail(fmt.Errorf("snapshot: write index section %d keys: %w", i, err))
		}
		if err := posts[i].VerifyCopy(w); err != nil {
			return sw.fail(fmt.Errorf("snapshot: write index section %d postings: %w", i, err))
		}
		off += keys[i].Len() + posts[i].Len()
		if err := writePad(); err != nil {
			return sw.fail(fmt.Errorf("snapshot: write padding: %w", err))
		}
	}
	sw.emitObs(shardTab, obsCount)
	sw.opt.Obs.Counter("snapshot.encode.index_bytes").Add(indexBytes)
	sw.opt.Obs.Counter("snapshot.encode.spilled_bytes").Add(spilled)
	return sw.release()
}

// release drops the encode-only state once Finish has written the
// snapshot — the dedup map, the drained sorters and their buffers, the scan
// payload and the per-scan column list (every column went with its scan
// shard), the DER locations — so all that stays for a lint pass (Certs,
// SPKI, NumCerts) is the sealed certificate payload, its table rows and the
// per-certificate fingerprint and SPKI. Close removes the payload. The
// writer then refuses further data.
func (sw *StreamWriter) release() error {
	err := sw.idx.close()
	sw.idx.ips, sw.idx.ases, sw.idx.locs = nil, nil, nil
	if serr := sw.certPay.data.Seal(); err == nil {
		err = serr
	}
	if rerr := sw.scanPay.data.Remove(); err == nil {
		err = rerr
	}
	sw.scanPay.tab = nil
	sw.byFP, sw.cols = nil, nil
	sw.pendDERs, sw.certVars, sw.ipVars = nil, nil, nil
	sw.err = errFinished
	return err
}

// errFinished is the sticky error of a writer whose Finish has run.
var errFinished = errors.New("snapshot: stream writer already finished")

// emitObs records the snapshot.encode.* counters.
func (sw *StreamWriter) emitObs(shardTab []V3Shard, obsCount uint64) {
	reg := sw.opt.Obs
	reg.Counter("snapshot.encode.shards").Add(int64(len(shardTab)))
	reg.Counter("snapshot.encode.certs").Add(int64(len(sw.idx.fps)))
	reg.Counter("snapshot.encode.scans").Add(int64(len(sw.idx.scans)))
	reg.Counter("snapshot.encode.observations").Add(int64(obsCount))
	var raw, comp uint64
	for _, sh := range shardTab {
		raw += sh.RawLen
		comp += sh.CompLen
	}
	reg.Counter("snapshot.encode.raw_bytes").Add(int64(raw))
	reg.Counter("snapshot.encode.comp_bytes").Add(int64(comp))
}

// onDisk sums the bytes held by the spills that moved to disk.
func onDisk(spills ...*extsort.SpillFile) int64 {
	var n int64
	for _, s := range spills {
		if s != nil && s.OnDisk() {
			n += s.Len()
		}
	}
	return n
}

// Certs hands fn every interned certificate in ID order, one certificate
// shard at a time: it reads each shard back from the certificate payload
// Finish sealed, puts it through V3Shard.Inflate and parses it across
// Options.Workers with its stored digest adopted. The certificates are the
// snapshot's own bytes, and a shard that rotted in the payload's spill
// fails its checksum before fn sees it. It needs a finished writer.
func (sw *StreamWriter) Certs(fn func([]*x509lite.Certificate) error) error {
	if sw.err != errFinished {
		return fmt.Errorf("snapshot: Certs before Finish")
	}
	rd, err := sw.certPay.data.Reader()
	if err != nil {
		return err
	}
	var comp []byte
	for i, sh := range sw.certPay.tab {
		comp = slices.Grow(comp[:0], int(sh.CompLen))[:sh.CompLen]
		if _, err := io.ReadFull(rd, comp); err != nil {
			return fmt.Errorf("snapshot: cert shard %d: %w", i, err)
		}
		raw, err := sh.Inflate(comp)
		if err != nil {
			return fmt.Errorf("snapshot: cert shard %d: %w", i, err)
		}
		certs, err := decodeCertShard(raw, int(sh.Count), false, sw.opt.Workers)
		if err != nil {
			return fmt.Errorf("snapshot: cert shard %d: %w", i, err)
		}
		if err := fn(certs); err != nil {
			return err
		}
	}
	return nil
}

// SPKI returns the public-key fingerprint of an interned certificate.
func (sw *StreamWriter) SPKI(id scanstore.CertID) x509lite.Fingerprint { return sw.idx.spkis[id] }

// Close waits for in-flight compressors, drops them and releases every
// spill and sorter. Safe to call more than once.
func (sw *StreamWriter) Close() error {
	for _, job := range sw.inflight {
		<-job.done
	}
	sw.inflight, sw.idle = nil, nil
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(sw.certPay.data.Remove())
	keep(sw.scanPay.data.Remove())
	keep(sw.idx.close())
	for _, c := range sw.cols {
		keep(c.cert.Remove())
		keep(c.ip.Remove())
	}
	return first
}

// StreamCorpus encodes an already-resident corpus through a StreamWriter:
// certificates appended in corpus ID order, then every scan's observations
// in order. WriteV3 is this at the default budget. A corpus holds each
// certificate once, so no dedup map is built, and its DERs are immutable,
// so the shards reference them. The corpus sizes the writer up front: its
// per-certificate arrays and its sorters' buffers (within their budget).
func StreamCorpus(w io.Writer, c *scanstore.Corpus, opt Options, cfg StreamWriterConfig) error {
	sw, err := NewStreamWriter(opt, cfg)
	if err != nil {
		return err
	}
	defer sw.Close()
	n := c.NumCerts()
	sw.idx.reserve(n, c.NumObservations())
	for i := 0; i < n; i++ {
		cert := c.Cert(scanstore.CertID(i)).Cert
		if _, err := sw.add(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint()); err != nil {
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
