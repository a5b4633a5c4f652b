package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"securepki/internal/extsort"
	"securepki/internal/obs"
	"securepki/internal/scanstore"
	"securepki/internal/x509lite"
)

// streamEncode replays a corpus through the StreamWriter by hand
// (streamFill) and finishes it.
func streamEncode(tb testing.TB, c *scanstore.Corpus, opt Options, cfg StreamWriterConfig) []byte {
	tb.Helper()
	sw := streamFill(tb, c, opt, cfg)
	var buf bytes.Buffer
	if err := sw.Finish(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// streamFill feeds a corpus to a new StreamWriter, which the test closes:
// certificates added in corpus ID order, then every scan's observations in
// order, checking the IDs Add hands out.
func streamFill(tb testing.TB, c *scanstore.Corpus, opt Options, cfg StreamWriterConfig) *StreamWriter {
	tb.Helper()
	sw, err := NewStreamWriter(opt, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sw.Close() })
	for i := 0; i < c.NumCerts(); i++ {
		cert := c.Cert(scanstore.CertID(i)).Cert
		id, err := sw.Add(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint())
		if err != nil {
			tb.Fatal(err)
		}
		if int(id) != i {
			tb.Fatalf("add %d: got id %d", i, id)
		}
	}
	for s := 0; s < c.NumScans(); s++ {
		scan := c.Scan(scanstore.ScanID(s))
		if err := sw.BeginScan(scan.Operator, scan.Time); err != nil {
			tb.Fatal(err)
		}
		for _, o := range scan.Obs {
			if err := sw.AddObs(o.Cert, o.IP); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sw
}

// gzipFreeDigest pins a snapshot without depending on gzip's output: the
// SHA-256 over the header's magic and counts and, per shard in table order,
// its (first, count) and the SHA-256 of its inflated payload; then the five
// index-section checksums from ReadV3Layout.
func gzipFreeDigest(tb testing.TB, data []byte) []string {
	tb.Helper()
	lay, err := ReadV3Layout(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	out := []string{shardDigest(tb, data[:32], data, lay)}
	for _, sec := range lay.Sections {
		out = append(out, fmt.Sprintf("%x", sec.Sum))
	}
	return out
}

// shardDigest is gzipFreeDigest's first entry with head in place of the
// file's magic and counts.
func shardDigest(tb testing.TB, head, data []byte, lay *V3Layout) string {
	tb.Helper()
	h := sha256.New()
	h.Write(head)
	for _, sh := range lay.Shards {
		raw, err := sh.Inflate(data[sh.Off : sh.Off+int64(sh.CompLen)])
		if err != nil {
			tb.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		var firstCount [16]byte
		binary.LittleEndian.PutUint64(firstCount[:], sh.First)
		binary.LittleEndian.PutUint64(firstCount[8:], sh.Count)
		h.Write(firstCount[:])
		h.Write(sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkPins fails unless data's gzip-free digest is want.
func checkPins(tb testing.TB, what string, data []byte, want []string) {
	tb.Helper()
	if got := gzipFreeDigest(tb, data); !slices.Equal(got, want) {
		tb.Fatalf("%s: snapshot digest moved:\n got %q\nwant %q", what, got, want)
	}
}

// The pins below were computed from the resident WriteV3 encoder that the
// StreamWriter replaced, so they hold the writer to the bytes it produced.

// TestStreamWriterMatchesV2 holds v3's corpus shards to the retired v2
// format they were lifted from: the two share the counts and the shard
// payloads, so with v2's magic in front, the digest of v3's counts and
// inflated shards must equal the pins the v2 writer produced, across shard
// sizings that land partial and exact shard boundaries.
func TestStreamWriterMatchesV2(t *testing.T) {
	c := testCorpus(t, 300, 9, 500)
	for _, row := range []struct {
		opt Options
		pin string
	}{
		{Options{}, "ad9be2478955cc15820570ebb3888e7032a07cb786bd2b779929e4a52eb9bf94"},
		{Options{CertsPerShard: 64, ScansPerShard: 2}, "50fa1964e1cac1296af92f904f98269e98de57eee13371bda7560b7203c2a022"},
		{Options{CertsPerShard: 300, ScansPerShard: 9}, "ff9021521bac7082aff23a0d87c9b13a82442e5f01e2fd07d1a65b1a78080b6d"}, // exact boundaries
		{Options{CertsPerShard: 1, ScansPerShard: 1}, "c017fbc202d152a8c113b27ac7ab68b50921d5bd4b468bc5ac0a28edec7eb45b"},
	} {
		got := streamEncode(t, c, row.opt, StreamWriterConfig{SpillDir: t.TempDir()})
		lay, err := ReadV3Layout(bytes.NewReader(got), int64(len(got)))
		if err != nil {
			t.Fatal(err)
		}
		head := append([]byte("SPKISNP2"), got[8:32]...)
		if d := shardDigest(t, head, got, lay); d != row.pin {
			t.Fatalf("CertsPerShard=%d ScansPerShard=%d: shards moved from v2:\n got %s\nwant %s",
				row.opt.CertsPerShard, row.opt.ScansPerShard, d, row.pin)
		}
	}
}

// TestStreamWriterMatchesV3 pins the writer's output, AS view included,
// across shard sizings that land partial and exact shard boundaries, with
// the column spill threshold crushed and a small budget so every
// observation column, the sorters and the section arrays take the disk
// path.
func TestStreamWriterMatchesV3(t *testing.T) {
	old := colSpillThreshold
	colSpillThreshold = 64
	defer func() { colSpillThreshold = old }()

	sections := []string{ // IP, AS and scan-metadata sums, shared by the rows below
		"4e47ea12192f6a91223107aa439410774bd169c7e3e23266b709816618a30aae",
		"a71f850050217c879a790bb4be760f52f3141a0e6997c882d0fb375d3873697c",
		"1632f92fc868167b0dd3e30c08721a3d1b39d4f498a7b465626f587be7473042",
		"d030cda6939547d6175335c0ec3dd6298858f1485f991da0fda6ee6f3d7d8378",
	}
	c := testCorpus(t, 300, 9, 500)
	for _, row := range []struct {
		opt  Options
		pins []string
	}{
		{Options{ASOf: testASOf}, append([]string{
			"8830cf5361cec88be5cdc4a57f6cc9d36962fe5ab19311112a53de947311faea",
			"1f8e48955ac310a5d6563670c3660cefd6142391fb4884ce14eebf3cd41d3d44",
		}, sections...)},
		{Options{ASOf: testASOf, CertsPerShard: 64, ScansPerShard: 2}, append([]string{
			"095b95336d5df1b6c0929bacd4a24e588ce5352d8fe65682cb973552f6c2b31e",
			"89c5f75022a3328dfc7b00f6b2abfbff7ea668e98506e403dec5b1b829fcf581",
		}, sections...)},
		{Options{CertsPerShard: 64, ScansPerShard: 2}, []string{ // no AS view: empty AS section
			"095b95336d5df1b6c0929bacd4a24e588ce5352d8fe65682cb973552f6c2b31e",
			"89c5f75022a3328dfc7b00f6b2abfbff7ea668e98506e403dec5b1b829fcf581",
			sections[0], sections[1],
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			sections[3],
		}},
		{Options{ASOf: testASOf, CertsPerShard: 300, ScansPerShard: 9}, append([]string{ // exact boundaries
			"dcefbf9736cd9565036ddc76e1b41c768fe8bb86aca444cc6aa5963479a1b5f5",
			"1f8e48955ac310a5d6563670c3660cefd6142391fb4884ce14eebf3cd41d3d44",
		}, sections...)},
		{Options{ASOf: testASOf, CertsPerShard: 1, ScansPerShard: 1}, append([]string{
			"7e3c33139b4b56460cd714852c3409e22c56300eb1739c9c9e481cb9657cb198",
			"58a757ec42a36193b40c14fbe041a500192158a16283f1288012523eaace2894",
		}, sections...)},
	} {
		got := streamEncode(t, c, row.opt, StreamWriterConfig{
			SpillDir:  t.TempDir(),
			MemBudget: 1 << 16, // force sorter spill runs
		})
		checkPins(t, fmt.Sprintf("ASOf=%v CertsPerShard=%d ScansPerShard=%d", row.opt.ASOf != nil, row.opt.CertsPerShard, row.opt.ScansPerShard), got, row.pins)
		// The output must actually load, index check included.
		if _, err := Read(bytes.NewReader(got), int64(len(got)), Options{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamWriterEmpty pins the degenerate corpus: no certs, no scans.
func TestStreamWriterEmpty(t *testing.T) {
	empty := "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	got := streamEncode(t, scanstore.NewCorpus(), Options{}, StreamWriterConfig{SpillDir: t.TempDir()})
	checkPins(t, "empty", got, []string{"126bb431e0888831c49d5b2b8056558a8afca185ca6ce3109320f7825f374957", empty, empty, empty, empty, empty})
}

// TestStreamWriterRepeatSightings covers the dedup paths the corpora above
// never reach: a scan that sees one certificate at one IP twice, and
// certificates seen again in the AS of an earlier sighting. The IP and AS
// sections must list each (scan, cert) at an IP and each cert in an AS once
// — Read rejects a repeated posting — and the bytes stay pinned to what the
// former resident encoder wrote.
func TestStreamWriterRepeatSightings(t *testing.T) {
	c := testCorpus(t, 20, 2, 10)
	base := c.Scan(1).Time
	for s := 1; s <= 3; s++ {
		obs := []scanstore.Observation{
			{Cert: 3, IP: 0x0a010203}, {Cert: 3, IP: 0x0a010203}, // repeat within the scan
			{Cert: 5, IP: 0x0a010204}, {Cert: 3, IP: 0x0a020203},
			{Cert: 7, IP: 0xc0000001}, // unrouted
		}
		if _, err := c.AddScan(scanstore.UMich, base.Add(time.Duration(s)*time.Hour), obs); err != nil {
			t.Fatal(err)
		}
	}
	data := encodeV3(t, c, Options{ASOf: testASOf, CertsPerShard: 8})
	checkPins(t, "repeat sightings", data, []string{
		"2c329b5a8bc9162e7c8e8f8918c10d0a3ace54013a8990d45df8bd376e3f60cc",
		"bb5b26d0b2eac9e6aaf9722eaac68e2f331df4785bc69472e69e451b0cf42ca2",
		"c2bf6b77dee53c603724d5889b2b2bf8b938bfa8ad4e2a18a87ca624209ab0ea",
		"9c059f549a4a1123606befd4192af48f7395250f73a30fe02bd9327f38f507ae",
		"cffc5fb6ba4b02cab0a41e185253a5e1f5efb1a9c1e93a5931973bd248a4d7e1",
		"6bf533e74e592955ff2c5873eb9706a42c946124110c10a18fe953eb350329f0",
	})
	if _, err := Read(bytes.NewReader(data), int64(len(data)), Options{}); err != nil {
		t.Fatal(err)
	}
}

// keptWriter adds c's certificates to a writer with its spills in dir, and
// finishes it.
func keptWriter(t *testing.T, c *scanstore.Corpus, opt Options, budget int64, dir string) *StreamWriter {
	t.Helper()
	sw, err := NewStreamWriter(opt, StreamWriterConfig{SpillDir: dir, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	for i := 0; i < c.NumCerts(); i++ {
		cert := c.Cert(scanstore.CertID(i)).Cert
		if _, err := sw.Add(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Certs(func([]*x509lite.Certificate) error { return nil }); err == nil || !strings.Contains(err.Error(), "before Finish") {
		t.Fatalf("Certs before Finish: err = %v", err)
	}
	if err := sw.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestStreamWriterCerts checks the read-back for lint: after Finish every
// added certificate comes back parsed from the certificate payload, in
// ID order, one certificate shard at a time, with its exact DER,
// fingerprint and SPKI — from a payload kept in memory and from one spilled
// to disk, with a shard size that does not divide the count, at one worker
// and at four.
func TestStreamWriterCerts(t *testing.T) {
	c := testCorpus(t, 40, 2, 50)
	for _, tc := range []struct {
		name    string
		budget  int64
		workers int
	}{
		{"in memory", 0, 1},
		{"on disk", 1 << 10, 4},
	} {
		dir := t.TempDir()
		sw := keptWriter(t, c, Options{Workers: tc.workers, CertsPerShard: 7}, tc.budget, dir)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if onDisk := len(files) == 1; onDisk != (tc.budget != 0) {
			t.Fatalf("%s: %d files left in the spill dir after Finish", tc.name, len(files))
		}
		next := 0
		var sizes []int
		err = sw.Certs(func(certs []*x509lite.Certificate) error {
			sizes = append(sizes, len(certs))
			for _, cert := range certs {
				want := c.Cert(scanstore.CertID(next)).Cert
				if !bytes.Equal(cert.Raw, want.Raw) || cert.Fingerprint() != want.Fingerprint() ||
					cert.PublicKeyFingerprint() != want.PublicKeyFingerprint() {
					t.Fatalf("%s: certificate %d differs from the one added", tc.name, next)
				}
				next++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := []int{7, 7, 7, 7, 7, 5}; !slices.Equal(sizes, want) {
			t.Fatalf("%s: shard sizes %v, want %v", tc.name, sizes, want)
		}
	}
}

// TestColumnSpillFollowsBudget: an observation column stays in memory up to
// its share of the columns' eighth of the budget, so a 100k-sighting scan
// written at the default budget spills nothing (a fixed 256 KiB cap once
// sent its IP column to disk), while at 64 KiB the columns, and more, spill
// and snapshot.encode.spilled_bytes reports it.
func TestColumnSpillFollowsBudget(t *testing.T) {
	c := testCorpus(t, 50, 1, 100000)
	spilled := func(budget int64) int64 {
		reg := obs.NewRegistry()
		var buf bytes.Buffer
		opt := Options{Workers: 2, ASOf: testASOf, Obs: reg}
		if err := StreamCorpus(&buf, c, opt, StreamWriterConfig{SpillDir: t.TempDir(), MemBudget: budget}); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("snapshot.encode.spilled_bytes").Value()
	}
	if n := spilled(0); n != 0 {
		t.Errorf("default budget: %d bytes spilled, want 0", n)
	}
	if n := spilled(64 << 10); n <= 0 {
		t.Errorf("64 KiB budget: %d bytes spilled, want some", n)
	}
}

// TestColumnsStayInTheirEighth: at a small budget the observation columns
// of the open scan shard and of the scan shards in flight hold at most an
// eighth of the budget in memory. Each column of the open shard spills past
// its share, at most Workers shards are in flight beside it, and the shares
// of all those shards' columns add up to no more than the eighth.
func TestColumnsStayInTheirEighth(t *testing.T) {
	const budget = 256 << 10
	c := testCorpus(t, 50, 12, 3000)
	for _, workers := range []int{1, 3} {
		opt := Options{Workers: workers, ScansPerShard: 2, ASOf: testASOf}
		sw, err := NewStreamWriter(opt, StreamWriterConfig{SpillDir: t.TempDir(), MemBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if all := int64(2*opt.ScansPerShard*(1+workers)) * sw.colCap; all > budget/8 {
			t.Fatalf("workers=%d: columns may hold %d bytes, over the eighth %d", workers, all, budget/8)
		}
		for i := 0; i < c.NumCerts(); i++ {
			cert := c.Cert(scanstore.CertID(i)).Cert
			if _, err := sw.Add(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint()); err != nil {
				t.Fatal(err)
			}
		}
		spills := 0
		check := func() {
			if len(sw.inflight) > workers {
				t.Fatalf("workers=%d: %d shards in flight", workers, len(sw.inflight))
			}
			for _, cols := range sw.cols[sw.scansDone:] {
				for _, col := range []*extsort.SpillFile{cols.cert, cols.ip} {
					if col.OnDisk() {
						spills++
					} else if col.Len() > sw.colCap {
						t.Fatalf("workers=%d: a column holds %d bytes in memory, share %d", workers, col.Len(), sw.colCap)
					}
				}
			}
		}
		for s := 0; s < c.NumScans(); s++ {
			scan := c.Scan(scanstore.ScanID(s))
			if err := sw.BeginScan(scan.Operator, scan.Time); err != nil {
				t.Fatal(err)
			}
			for i, o := range scan.Obs {
				if err := sw.AddObs(o.Cert, o.IP); err != nil {
					t.Fatal(err)
				}
				if i%256 == 0 {
					check()
				}
			}
			check()
		}
		if err := sw.Finish(io.Discard); err != nil {
			t.Fatal(err)
		}
		sw.Close()
		if spills == 0 {
			t.Fatalf("workers=%d: no column spilled; the test corpus is too small for its budget", workers)
		}
	}
}

// TestStreamWriterCertsDetectsRot flips a bit in the certificate payload on
// disk, the only file Finish leaves in the spill dir. The bit is in the
// last shard, whose checksum must catch it before the shard is handed out:
// Certs fails with the shard's checksum mismatch after the shards before
// it.
func TestStreamWriterCertsDetectsRot(t *testing.T) {
	c := testCorpus(t, 40, 2, 50)
	dir := t.TempDir()
	sw := keptWriter(t, c, Options{CertsPerShard: 7}, 1<<10, dir)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("%d files left in the spill dir after Finish, want the certificate payload", len(files))
	}
	path := filepath.Join(dir, files[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	handed := 0
	err = sw.Certs(func(certs []*x509lite.Certificate) error {
		handed += len(certs)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Certs over a rotted shard: err = %v, want a checksum mismatch", err)
	}
	if handed != 35 {
		t.Fatalf("Certs handed out %d certificates before the rotted shard, want 35", handed)
	}
}

// TestStreamWriterRejectsRepeatedFingerprint: the writer keeps no
// fingerprint map, so a caller that adds a certificate twice gets IDs for
// both, and Finish fails before it writes a byte, whether the repeat shares
// a certificate shard with its first or not.
func TestStreamWriterRejectsRepeatedFingerprint(t *testing.T) {
	c := testCorpus(t, 3, 1, 3)
	for _, perShard := range []int{0, 1} {
		sw, err := NewStreamWriter(Options{CertsPerShard: perShard}, StreamWriterConfig{SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Close()
		for i, id := range []scanstore.CertID{0, 1, 0} {
			cert := c.Cert(id).Cert
			got, err := sw.Add(cert.Raw, cert.Fingerprint(), cert.PublicKeyFingerprint())
			if err != nil || int(got) != i {
				t.Fatalf("CertsPerShard=%d: add %d: id=%d err=%v", perShard, i, got, err)
			}
		}
		scan := c.Scan(0)
		if err := sw.BeginScan(scan.Operator, scan.Time); err != nil {
			t.Fatal(err)
		}
		if err := sw.AddObs(2, scan.Obs[0].IP); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = sw.Finish(&out)
		if err == nil || !strings.Contains(err.Error(), "certificates 0 and 2 share a fingerprint") {
			t.Fatalf("CertsPerShard=%d: Finish over a repeated fingerprint: err = %v", perShard, err)
		}
		if out.Len() != 0 {
			t.Fatalf("CertsPerShard=%d: Finish wrote %d bytes before failing", perShard, out.Len())
		}
	}
}

// TestStreamCorpusMatchesWrite pins StreamCorpus under a spill-forcing
// budget, and checks WriteV3 — StreamCorpus at the default budget —
// produces the same bytes.
func TestStreamCorpusMatchesWrite(t *testing.T) {
	c := testCorpus(t, 120, 5, 80)
	cfg := StreamWriterConfig{SpillDir: t.TempDir(), MemBudget: 1 << 14}
	opt := Options{ASOf: testASOf}
	var got bytes.Buffer
	if err := StreamCorpus(&got, c, opt, cfg); err != nil {
		t.Fatal(err)
	}
	checkPins(t, "StreamCorpus v3", got.Bytes(), []string{
		"25c42c510f4517cdbf91c9365c70e36c50db019230e3b0f51123aef4cb82dd5d",
		"2dc03df0e1c2fedbf0e5bebccb22b665e2c41baa91477edccbfcdb782173ae32",
		"60eb340f7136eeede65e2702f65802e4c784697e95900adf155868735b56f063",
		"2dc8a108cae525e8a10d75153f1d779430f14ae6a6064b94418a2f209163bb71",
		"3bb16d3acfc8d338af4c8c2f17d3133fcaedb53cb6d59864ca5dbacc68e012b3",
		"265cc3cb0343c3fe8d15f1a26810fc60b92dff752f1fdf455cdff2def935e6de",
	})
	if want := encodeV3(t, c, opt); !bytes.Equal(want, got.Bytes()) {
		t.Fatal("StreamCorpus v3 under a small budget differs from WriteV3")
	}
}

// TestResidentWriteNeedsNoTempDir: with TMPDIR pointing at a directory that
// does not exist, WriteV3 and Read of a small corpus still succeed —
// everything the encoder buffers fits its memory share, so no spill file is
// ever created.
func TestResidentWriteNeedsNoTempDir(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	c := testCorpus(t, 120, 5, 80)
	raw := encodeV3(t, c, Options{ASOf: testASOf})
	got, err := Read(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	corpusEqual(t, c, got)
}
