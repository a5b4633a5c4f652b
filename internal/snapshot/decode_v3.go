package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"securepki/internal/parallel"
	"securepki/internal/scanstore"
)

// Read loads a complete corpus from a snapshot of size bytes. All input is
// treated as hostile: ReadV3Layout judges the framing (magic, header
// checksum, caps, exact size, zero padding), so anything but the v3 magic is
// a "bad magic" error and no read below can allocate past the file's checked
// size. The shard payloads are read, checked through V3Shard.Inflate and
// decoded across opt.Workers; the appended index sections are then held to a
// stricter standard than structural validity: the loader rebuilds the
// deterministic sections (fingerprint, SPKI, IP, scan metadata) from the
// decoded corpus and demands byte equality, so a file whose indexes
// disagree with its own payloads is rejected outright. The AS section
// cannot be rebuilt (the writer's network view is not in the file), so it
// gets the full structural validation instead.
func Read(ra io.ReaderAt, size int64, opt Options) (*scanstore.Corpus, error) {
	opt = opt.withDefaults()
	lay, err := ReadV3Layout(ra, size)
	if err != nil {
		return nil, err
	}
	certParts, scanParts, err := decodeShards(ra, lay, opt)
	if err != nil {
		return nil, err
	}
	var indexBytes int64
	sections := make([][2][]byte, V3SectionCount)
	for i, sec := range lay.Sections {
		keys, err := readAt(ra, sec.KeysOff, sec.KeysLen())
		if err != nil {
			return nil, fmt.Errorf("snapshot: index section %d keys: %w", i, err)
		}
		post, err := readAt(ra, sec.PostOff, int64(sec.PostLen))
		if err != nil {
			return nil, fmt.Errorf("snapshot: index section %d postings: %w", i, err)
		}
		sections[i] = [2][]byte{keys, post}
		indexBytes += int64(len(keys)) + int64(len(post))
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
	opt.Obs.Counter("snapshot.decode.shards").Add(int64(len(lay.Shards)))
	opt.Obs.Counter("snapshot.decode.certs").Add(int64(lay.CertCount))
	opt.Obs.Counter("snapshot.decode.scans").Add(int64(lay.ScanCount))
	opt.Obs.Counter("snapshot.decode.observations").Add(int64(lay.ObsCount))
	return c, nil
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
