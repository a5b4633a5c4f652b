package scanner

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"securepki/internal/extsort"
)

// chunkRecord is one chunk's scan results: per scan, the certificates first
// seen by this chunk at that scan and the chunk-local observations.
type chunkRecord struct {
	certs [][]NewCert
	obs   [][]ObsRec
	bytes int64
}

func newChunkRecord(nScans int) *chunkRecord {
	return &chunkRecord{certs: make([][]NewCert, nScans), obs: make([][]ObsRec, nScans)}
}

func (r *chunkRecord) addCert(scan int, c NewCert) {
	r.certs[scan] = append(r.certs[scan], c)
	r.bytes += int64(len(c.DER)) + 72
}

func (r *chunkRecord) addObs(scan int, o ObsRec) {
	r.obs[scan] = append(r.obs[scan], o)
	r.bytes += 8
}

// spilledChunk is a chunk record on disk: one sealed SpillFile holding a
// section per scan, in scan order, and one reader that streams them back.
// The section table stays in the process, so the only trust placed in the
// file is that its bytes did not rot between write and replay — exactly
// what the spill's digest catches once the last section is read.
type spilledChunk struct {
	spill    *extsort.SpillFile
	r        io.Reader
	next     int // the section r is at
	sections []chunkSection
}

type chunkSection struct {
	len        int64
	certs, obs int
}

// ChunkStore accumulates chunk records in order, spilling whole chunks to
// dir, oldest first, while the live records and the record being built
// exceed memBudget bytes. Replay access is by (chunk, scan) section, the
// unit the snapshot replay consumes; a spilled chunk's sections must be
// read in scan order, each once.
type ChunkStore struct {
	nScans    int
	memBudget int64
	dir       string

	live      []*chunkRecord  // by chunk index; nil once spilled
	spilled   []*spilledChunk // by chunk index; nil while live
	oldest    int             // the oldest live chunk: every chunk before it spilled
	liveBytes int64
	building  *chunkRecord // the record StreamRun is filling; nil between chunks
	highWater int64        // the most liveBytes plus building's bytes reached
	err       error        // a spill that failed while building grew
	spills    int
	spiltIn   int64  // total bytes written to spill files
	obsBuf    []byte // a spilled section's observation bytes, reused

	// OnSpill, when non-nil, observes each chunk spill (chunk index, bytes
	// written); core hangs its mem.* gauges and core.spill spans here.
	OnSpill func(chunk int, bytes int64)
}

// NewChunkStore returns an empty store for a campaign of nScans scans.
// memBudget <= 0 means 256 MiB; dir "" means the OS temp dir.
func NewChunkStore(nScans int, memBudget int64, dir string) *ChunkStore {
	if memBudget <= 0 {
		memBudget = 256 << 20
	}
	return &ChunkStore{nScans: nScans, memBudget: memBudget, dir: dir}
}

// beginChunk starts the record of the next chunk, which addCert and addObs
// grow and endChunk adds.
func (cs *ChunkStore) beginChunk() {
	cs.building = newChunkRecord(cs.nScans)
}

// addCert and addObs grow the record being built, spilling the oldest live
// chunks while their bytes plus the record's exceed the budget. The record
// only grows, so each chunk spilled here is one endChunk would spill for
// the complete record: the spills are the same, only earlier, and the chunk
// being filled never sits beside live chunks the budget has no room for.
func (cs *ChunkStore) addCert(scan int, c NewCert) {
	cs.building.addCert(scan, c)
	cs.makeRoom()
}

func (cs *ChunkStore) addObs(scan int, o ObsRec) {
	cs.building.addObs(scan, o)
	cs.makeRoom()
}

func (cs *ChunkStore) makeRoom() {
	n := cs.building.bytes
	for cs.err == nil && cs.oldest < len(cs.live) && cs.liveBytes+n > cs.memBudget {
		cs.err = cs.spillChunk(cs.oldest)
	}
	cs.highWater = max(cs.highWater, cs.liveBytes+n)
}

// endChunk adds the record being built as the next chunk, or reports the
// spill that failed while it grew. If the record alone exceeds the budget,
// every older chunk is gone by now, and it spills too. Spilling policy
// never affects replay output — only which medium a section is read back
// from.
func (cs *ChunkStore) endChunk() error {
	rec := cs.building
	cs.building = nil
	if cs.err != nil {
		return cs.err
	}
	cs.live = append(cs.live, rec)
	cs.spilled = append(cs.spilled, nil)
	cs.liveBytes += rec.bytes
	if cs.liveBytes > cs.memBudget {
		return cs.spillChunk(len(cs.live) - 1)
	}
	return nil
}

// NumChunks returns how many chunk records the store holds.
func (cs *ChunkStore) NumChunks() int { return len(cs.live) }

// LiveChunks returns how many chunk records are resident (not spilled).
func (cs *ChunkStore) LiveChunks() int {
	n := 0
	for _, r := range cs.live {
		if r != nil {
			n++
		}
	}
	return n
}

// Spills returns how many chunks have been spilled to disk.
func (cs *ChunkStore) Spills() int { return cs.spills }

// SpilledBytes returns the total bytes written to spill files.
func (cs *ChunkStore) SpilledBytes() int64 { return cs.spiltIn }

// LiveHighWater returns the most bytes the store has held live at once,
// counting the record being built: at most the budget, unless one chunk's
// record alone exceeds it, and then that record's size.
func (cs *ChunkStore) LiveHighWater() int64 { return cs.highWater }

// spillChunk writes chunk k, the oldest live one, to a sealed spill file
// and drops it from the live set.
func (cs *ChunkStore) spillChunk(k int) error {
	rec := cs.live[k]
	sp := &spilledChunk{
		spill:    extsort.NewSpillFile(cs.dir, "scan-chunk-*.spill", 0),
		sections: make([]chunkSection, cs.nScans),
	}
	var buf []byte
	for s := 0; s < cs.nScans; s++ {
		buf = encodeSection(buf[:0], rec.certs[s], rec.obs[s])
		sp.spill.Write(buf) // a write error sticks, and Seal reports it
		sp.sections[s] = chunkSection{len: int64(len(buf)), certs: len(rec.certs[s]), obs: len(rec.obs[s])}
	}
	err := sp.spill.Seal()
	if err == nil {
		sp.r, err = sp.spill.Reader()
	}
	if err != nil {
		sp.spill.Remove()
		return fmt.Errorf("scanner: write chunk spill: %w", err)
	}
	n := sp.spill.Len()
	cs.spilled[k] = sp
	cs.live[k] = nil
	cs.oldest = k + 1
	cs.liveBytes -= rec.bytes
	cs.spills++
	cs.spiltIn += n
	if cs.OnSpill != nil {
		cs.OnSpill(k, n)
	}
	return nil
}

// Section returns chunk k's record for scan s: the certificates the chunk
// first saw at that scan, and its observations. A spilled chunk's sections
// come back in scan order only, and its digest is checked as the last one
// is read, so an earlier section may carry rot the replay fails on later.
// The returned slices are owned by the caller for spilled chunks and shared
// with the store for live ones.
func (cs *ChunkStore) Section(k, s int) ([]NewCert, []ObsRec, error) {
	if rec := cs.live[k]; rec != nil {
		return rec.certs[s], rec.obs[s], nil
	}
	sp := cs.spilled[k]
	if s != sp.next {
		return nil, nil, fmt.Errorf("scanner: chunk %d scan %d read out of scan order (next is scan %d)", k, s, sp.next)
	}
	// The certificates and the observations are read into buffers of
	// their own: the certificates' DERs are slices of theirs, which a
	// caller may keep, while the observations are decoded into ObsRecs, so
	// their bytes go to a buffer the store reuses.
	sec := sp.sections[s]
	obsLen := 8 * int64(sec.obs)
	if obsLen > sec.len {
		return nil, nil, fmt.Errorf("scanner: chunk %d scan %d spill section malformed", k, s)
	}
	certBuf := make([]byte, sec.len-obsLen)
	cs.obsBuf = slices.Grow(cs.obsBuf[:0], int(obsLen))[:obsLen]
	if _, err := io.ReadFull(sp.r, certBuf); err != nil {
		return nil, nil, fmt.Errorf("scanner: read chunk %d scan %d spill: %w", k, s, err)
	}
	if _, err := io.ReadFull(sp.r, cs.obsBuf); err != nil {
		return nil, nil, fmt.Errorf("scanner: read chunk %d scan %d spill: %w", k, s, err)
	}
	sp.next++
	if sp.next == len(sp.sections) {
		if err := extsort.ReadEnd(sp.r); err != nil {
			return nil, nil, fmt.Errorf("scanner: chunk %d spill: %w", k, err)
		}
	}
	return decodeSection(certBuf, cs.obsBuf, sec.certs, sec.obs, k, s)
}

// Close removes every spill file. Safe to call more than once.
func (cs *ChunkStore) Close() error {
	var first error
	for _, sp := range cs.spilled {
		if sp == nil {
			continue
		}
		if err := sp.spill.Remove(); err != nil && first == nil {
			first = err
		}
	}
	cs.spilled = nil
	cs.live = nil
	return first
}

// encodeSection lays out one (chunk, scan) section: per cert fp, SPKI,
// uvarint DER length and DER bytes; then fixed-width (local, ip) pairs.
// Counts live in the in-memory section table, not the file.
func encodeSection(out []byte, certs []NewCert, obs []ObsRec) []byte {
	for _, c := range certs {
		out = append(out, c.FP[:]...)
		out = append(out, c.SPKI[:]...)
		out = binary.AppendUvarint(out, uint64(len(c.DER)))
		out = append(out, c.DER...)
	}
	for _, o := range obs {
		out = binary.LittleEndian.AppendUint32(out, o.Local)
		out = binary.LittleEndian.AppendUint32(out, o.IP)
	}
	return out
}

// decodeSection decodes one section from its certificate bytes and its
// observation bytes; the certificates' DERs are slices of certBuf.
func decodeSection(buf, obsBuf []byte, nCerts, nObs, k, s int) ([]NewCert, []ObsRec, error) {
	corrupt := func() error {
		return fmt.Errorf("scanner: chunk %d scan %d spill section malformed", k, s)
	}
	var certs []NewCert
	if nCerts > 0 {
		certs = make([]NewCert, 0, nCerts)
	}
	for i := 0; i < nCerts; i++ {
		var c NewCert
		if len(buf) < 64 {
			return nil, nil, corrupt()
		}
		copy(c.FP[:], buf)
		copy(c.SPKI[:], buf[32:])
		buf = buf[64:]
		dlen, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < dlen {
			return nil, nil, corrupt()
		}
		c.DER = buf[n : n+int(dlen)]
		buf = buf[n+int(dlen):]
		certs = append(certs, c)
	}
	if len(buf) != 0 || len(obsBuf) != nObs*8 {
		return nil, nil, corrupt()
	}
	var obs []ObsRec
	if nObs > 0 {
		obs = make([]ObsRec, 0, nObs)
	}
	for i := 0; i < nObs; i++ {
		obs = append(obs, ObsRec{
			Local: binary.LittleEndian.Uint32(obsBuf[i*8:]),
			IP:    binary.LittleEndian.Uint32(obsBuf[i*8+4:]),
		})
	}
	return certs, obs, nil
}
