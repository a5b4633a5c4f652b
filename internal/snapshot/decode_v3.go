package snapshot

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"

	"securepki/internal/parallel"
	"securepki/internal/scanstore"
)

// Read loads a complete corpus from a snapshot stream. All input is treated
// as hostile — truncation, corruption and absurd length fields yield
// explicit errors, never panics or unbounded allocation, and anything but
// the v3 magic is a "bad magic" error. The shard payloads are checksummed
// and decoded across opt.Workers; the appended index sections are then held
// to a stricter standard than structural validity: the loader rebuilds the
// deterministic sections (fingerprint, SPKI, IP, scan metadata) from the
// decoded corpus and demands byte equality, so a file whose indexes
// disagree with its own payloads is rejected outright. The AS section
// cannot be rebuilt (the writer's network view is not in the file), so it
// gets the full structural validation instead.
func Read(r io.Reader, opt Options) (*scanstore.Corpus, error) {
	opt = opt.withDefaults()
	r = bufio.NewReaderSize(r, 1<<16)
	// The magic is judged on its own so a wrong-format file is reported as
	// such rather than as a truncated header.
	fixed := make([]byte, headerFixedV3)
	if _, err := io.ReadFull(r, fixed[:8]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header: %w", err)
	}
	if string(fixed[:8]) != MagicV3 {
		return nil, fmt.Errorf("snapshot: bad magic %q", fixed[:8])
	}
	if _, err := io.ReadFull(r, fixed[8:]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header: %w", err)
	}
	lay, nShards, err := parseV3Fixed(fixed)
	if err != nil {
		return nil, err
	}

	table := make([]byte, nShards*tableEntry)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("snapshot: truncated shard table: %w", err)
	}
	itable := make([]byte, V3SectionCount*idxTableEntry)
	if _, err := io.ReadFull(r, itable); err != nil {
		return nil, fmt.Errorf("snapshot: truncated index table: %w", err)
	}
	var wantHeadSum [32]byte
	if _, err := io.ReadFull(r, wantHeadSum[:]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header checksum: %w", err)
	}
	h := sha256.New()
	h.Write(fixed)
	h.Write(table)
	h.Write(itable)
	if !bytes.Equal(h.Sum(nil), wantHeadSum[:]) {
		return nil, fmt.Errorf("snapshot: header checksum mismatch")
	}
	if err := parseV3Tables(lay, table, itable); err != nil {
		return nil, err
	}

	// Pull every compressed payload off the stream serially (it is one
	// reader), growing buffers only as bytes actually arrive.
	comps := make([][]byte, len(lay.Shards))
	off := int64(headerFixedV3) + int64(len(table)) + int64(len(itable)) + 32
	for i, sh := range lay.Shards {
		comp, err := readPayload(r, sh.CompLen)
		if err != nil {
			return nil, fmt.Errorf("snapshot: shard %d payload: %w", i, err)
		}
		comps[i] = comp
		off += int64(sh.CompLen)
	}
	certParts, scanParts, err := decodeShards(lay, comps, opt)
	if err != nil {
		return nil, err
	}

	// Index sections, with the alignment padding verified to be zeros.
	if err := readPadZeros(r, pad8(off)); err != nil {
		return nil, err
	}
	off += pad8(off)
	var indexBytes int64
	sections := make([][2][]byte, V3SectionCount)
	for i := range lay.Sections {
		sec := lay.Sections[i]
		keys, err := readPayload(r, uint64(sec.KeysLen()))
		if err != nil {
			return nil, fmt.Errorf("snapshot: index section %d keys: %w", i, err)
		}
		post, err := readPayload(r, sec.PostLen)
		if err != nil {
			return nil, fmt.Errorf("snapshot: index section %d postings: %w", i, err)
		}
		off += sec.KeysLen() + int64(sec.PostLen)
		if err := readPadZeros(r, pad8(off)); err != nil {
			return nil, err
		}
		off += pad8(off)
		sections[i] = [2][]byte{keys, post}
		indexBytes += int64(len(keys)) + int64(len(post))
	}
	// Trailing garbage is corruption, not padding.
	var trail [1]byte
	if n, _ := r.Read(trail[:]); n != 0 {
		return nil, fmt.Errorf("snapshot: trailing bytes after last index section")
	}
	// Structural validation of the file's sections and the rebuild from the
	// decoded corpus (below) are independent, so with workers to spare they
	// run side by side. A validation error wins either way; run serially,
	// it is reported before any rebuild work.
	validate := func() error {
		for i := range sections {
			if err := lay.ValidateSection(i, sections[i][0], sections[i][1]); err != nil {
				return err
			}
		}
		return nil
	}
	validated := make(chan error, 1)
	if parallel.Workers(opt.Workers) > 1 {
		go func() { validated <- validate() }()
	} else {
		if err := validate(); err != nil {
			return nil, err
		}
		validated <- nil
	}
	c, err := assembleCorpus(certParts, scanParts, lay.ObsCount)
	if err == nil {
		err = checkRebuiltSections(c, lay, sections, opt.Workers)
	}
	if verr := <-validated; verr != nil {
		return nil, verr
	}
	if err != nil {
		return nil, err
	}

	opt.Obs.Counter("snapshot.decode.v3").Inc()
	opt.Obs.Counter("snapshot.decode.index_bytes").Add(indexBytes)
	opt.Obs.Counter("snapshot.decode.shards").Add(int64(nShards))
	opt.Obs.Counter("snapshot.decode.certs").Add(int64(lay.CertCount))
	opt.Obs.Counter("snapshot.decode.scans").Add(int64(lay.ScanCount))
	opt.Obs.Counter("snapshot.decode.observations").Add(int64(lay.ObsCount))
	return c, nil
}

// readPadZeros consumes n alignment bytes and rejects any non-zero filler —
// padding is not a place to smuggle bytes past the checksums.
func readPadZeros(r io.Reader, n int64) error {
	if n == 0 {
		return nil
	}
	var pad [8]byte
	if _, err := io.ReadFull(r, pad[:n]); err != nil {
		return fmt.Errorf("snapshot: truncated padding: %w", err)
	}
	for _, b := range pad[:n] {
		if b != 0 {
			return fmt.Errorf("snapshot: non-zero padding byte")
		}
	}
	return nil
}

// checkRebuiltSections feeds the decoded corpus, placed in the file's own
// cert shards, through the writer's section builder and demands the
// fingerprint, SPKI, IP and scan-metadata sections match the file's byte for
// byte. The AS section is writer-dependent and is not rebuilt. Everything
// stays in memory: the builder's sorters get an unbounded budget.
func checkRebuiltSections(c *scanstore.Corpus, lay *V3Layout, sections [][2][]byte, workers int) error {
	b, err := newSectionBuilder(nil, math.MaxInt64, "")
	if err != nil {
		return err
	}
	defer b.close()
	certs := c.Certs()
	for _, rec := range certs {
		b.addCert(rec.Cert.Fingerprint(), rec.Cert.PublicKeyFingerprint())
	}
	var ders [][]byte
	for i, sh := range lay.Shards[:lay.CertShards] {
		ders = ders[:0]
		for _, rec := range certs[sh.First : sh.First+sh.Count] {
			ders = append(ders, rec.Cert.Raw)
		}
		b.placeShard(uint32(i), ders)
	}
	for _, s := range c.Scans() {
		b.beginScan(s.Operator, s.Time)
		for _, o := range s.Obs {
			if err := b.addSighting(o.IP, o.Cert); err != nil {
				return err
			}
		}
	}
	var out [V3SectionCount]sectionOut
	var match [V3SectionCount][2]*matchWriter
	for i := range out {
		if i == 3 { // as is writer-dependent
			out[i] = sectionOut{keys: io.Discard, post: io.Discard}
			continue
		}
		match[i] = [2]*matchWriter{{want: sections[i][0]}, {want: sections[i][1]}}
		out[i] = sectionOut{keys: match[i][0], post: match[i][1]}
	}
	if err := b.build(workers, out); err != nil {
		return fmt.Errorf("snapshot: rebuild indexes: %w", err)
	}
	for i, m := range match {
		if i != 3 && !(m[0].matched() && m[1].matched()) {
			return fmt.Errorf("snapshot: index section %d does not match the decoded corpus", i)
		}
	}
	return nil
}

// matchWriter checks that exactly the bytes of want are written to it.
type matchWriter struct {
	want     []byte
	mismatch bool
}

func (m *matchWriter) Write(p []byte) (int, error) {
	if m.mismatch || !bytes.HasPrefix(m.want, p) {
		m.mismatch = true
	} else {
		m.want = m.want[len(p):]
	}
	return len(p), nil
}

func (m *matchWriter) matched() bool { return !m.mismatch && len(m.want) == 0 }
