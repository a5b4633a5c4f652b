package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"

	"securepki/internal/certlint"
	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/scanstore"
)

// mutatedCorpus builds a corpus whose certificates come from a devicesim
// world with frankencert mutation turned most of the way up, so the fuzz
// seeds cover every population-class mutation (absurd versions, negative and
// oversized serials, inverted validity, donor swaps, duplicate extensions,
// pathological name lengths, ...) flowing through the container codec.
func mutatedCorpus(tb testing.TB) *scanstore.Corpus {
	tb.Helper()
	cfg := devicesim.DefaultConfig()
	cfg.Seed = 11
	cfg.NumDevices = 60
	cfg.NumSites = 4
	cfg.MutateFrac = 0.6
	world, err := devicesim.BuildWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c := scanstore.NewCorpus()
	obs := make([]scanstore.Observation, 0, len(world.Devices))
	for i, dev := range world.Devices {
		id := c.Intern(dev.CurrentCert())
		obs = append(obs, scanstore.Observation{Cert: id, IP: netsim.IP(0x0a000000 + uint32(i))})
	}
	if _, err := c.AddScan(scanstore.UMich, cfg.Start, obs); err != nil {
		tb.Fatal(err)
	}
	return c
}

// FuzzReadSnapshot throws arbitrary bytes at the loader. The invariants: Read
// never panics, never allocates unboundedly, and anything it accepts must
// survive a write/read round trip unchanged. The seed corpus covers valid
// files with and without an AS view, the retired formats' magics and the
// interesting failure shapes; CI replays the seeds with -fuzztime=0 so the
// harness itself stays exercised.
func FuzzReadSnapshot(f *testing.F) {
	c := testCorpus(f, 12, 3, 20)
	v3 := encodeV3(f, c, Options{CertsPerShard: 5, ScansPerShard: 2, ASOf: testASOf})
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(v3)
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}

	f.Add(v3)
	f.Add(encodeV3(f, c, Options{CertsPerShard: 5, ScansPerShard: 2})) // empty AS section
	f.Add(encodeV3(f, scanstore.NewCorpus(), Options{}))
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:len(v3)-30]) // cuts into the index sections
	f.Add(flipByte(v3, len(v3)-5))
	f.Add(flipByte(v3, headerFixedV3+4))
	f.Add(append(append([]byte(nil), v3...), 0xff))
	f.Add(forgeObsOverflow(f, v3))
	// A forged v3: structurally valid indexes that disagree with the
	// payloads (scan 0's operator flipped, checksums recomputed).
	f.Add(patchV3Section(f, v3, 4, func(keys, post []byte) {
		keys[0] ^= 1
	}))
	// Header fields that lie behind a recomputed header checksum.
	f.Add(patchV3Header(f, v3, func(fixed, table, itable []byte) {
		binary.LittleEndian.PutUint64(fixed[8:], 1<<40)
	}))
	f.Add(patchV3Header(f, v3, func(fixed, table, itable []byte) {
		binary.LittleEndian.PutUint64(table[16:], binary.LittleEndian.Uint64(table[16:])-1)
	}))
	f.Add(patchV3Header(f, v3, func(fixed, table, itable []byte) {
		binary.LittleEndian.PutUint64(fixed[24:], binary.LittleEndian.Uint64(fixed[24:])+1)
	}))
	// Retired formats: a v2 magic and v1's gzip container.
	f.Add(append([]byte("SPKISNP2"), v3[8:]...))
	f.Add(gz.Bytes())
	f.Add([]byte("SPKISNP2 but then nonsense"))
	f.Add([]byte{0x1f, 0x8b, 0x01, 0x02})
	f.Add([]byte("SPKISNP3 but then nonsense"))
	f.Add([]byte{})
	// Mutated-population seeds: frankencert-style device certs through the
	// container, plus a truncation landing inside the mutant DER.
	mutV3 := encodeV3(f, mutatedCorpus(f), Options{CertsPerShard: 16, ScansPerShard: 1, ASOf: testASOf})
	f.Add(mutV3)
	f.Add(mutV3[:2*len(mutV3)/3])
	f.Add(flipByte(mutV3, len(mutV3)/2))
	f.Add(forgeObsOverflow(f, mutV3))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		c, err := Read(bytes.NewReader(data), int64(len(data)), Options{Workers: 2})
		if err != nil {
			return
		}
		// Accepted input must round-trip: re-encode and re-read.
		var buf bytes.Buffer
		if err := WriteV3(&buf, c, Options{Workers: 2}); err != nil {
			t.Fatalf("accepted corpus fails to encode: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())), Options{Workers: 2})
		if err != nil {
			t.Fatalf("re-encoded corpus fails to load: %v", err)
		}
		corpusEqual(t, c, again)
	})
}

// FuzzReadLintColumn throws arbitrary bytes at the findings-column loader.
// Invariants: ReadLintColumn never panics and never reads out of bounds, and
// any column it accepts must re-encode to the identical bytes (the column's
// layout is fully canonical — tiled postings, tiled details, sorted keys —
// so a round trip has no freedom left).
func FuzzReadLintColumn(f *testing.F) {
	valid := encodeLintColumn(f, testLintResults(11), testLintInfos())
	empty := encodeLintColumn(f, nil, nil)
	f.Add(valid)
	f.Add(empty)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:lintColHeaderLen+32]) // header only
	f.Add(flipByte(valid, 9))
	f.Add(flipByte(valid, lintColHeaderLen+40))
	f.Add(flipByte(valid, len(valid)-5))
	f.Add(append(append([]byte(nil), valid...), 0xcc))
	f.Add(patchLintHeader(valid, func(h []byte) { h[24] = 0xff }))
	f.Add(patchLintBody(valid, func(_, _, posts, _ []byte) { posts[0] = 0xee }))
	f.Add([]byte(MagicLintColumn + " but then nonsense"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		lc, err := ReadLintColumn(data)
		if err != nil {
			return
		}
		results := make([]certlint.CertFindings, lc.CertCount())
		for k := range results {
			results[k] = certlint.CertFindings{Fingerprint: lc.Fingerprint(k), Findings: lc.FindingsAt(k)}
		}
		var buf bytes.Buffer
		if err := WriteLintColumn(&buf, results, lc.Lints); err != nil {
			t.Fatalf("accepted column fails to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted column does not round-trip byte-identically")
		}
	})
}
