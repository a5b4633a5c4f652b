package snapshot

import (
	"bytes"
	"testing"

	"securepki/internal/obs"
)

// TestCodecMetricsDeterministic: the snapshot.* metrics a round trip
// records are byte-identical at any worker count — shard boundaries are
// fixed by data, so per-shard byte counts and ratios never move.
func TestCodecMetricsDeterministic(t *testing.T) {
	c := testCorpus(t, 90, 7, 120)
	render := func(workers int) []byte {
		reg := obs.NewRegistry()
		opt := Options{Workers: workers, CertsPerShard: 16, ScansPerShard: 2, VerifyDigests: true, Obs: reg}
		data := encodeV3(t, c, opt)
		got, err := Read(bytes.NewReader(data), int64(len(data)), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		corpusEqual(t, c, got)
		return reg.Snapshot().EncodeJSON()
	}
	want := render(1)
	for _, workers := range []int{4, 16} {
		if got := render(workers); !bytes.Equal(got, want) {
			t.Fatalf("metrics differ at workers=%d:\n%s\nwant:\n%s", workers, got, want)
		}
	}
	if err := obs.ValidateMetrics(want); err != nil {
		t.Fatalf("codec metrics fail schema: %v", err)
	}
}

// TestCodecMetricsCounts spot-checks the counter semantics: encode and
// decode agree on shard and index bytes, digest verifies cover every
// certificate, and each load counts itself.
func TestCodecMetricsCounts(t *testing.T) {
	c := testCorpus(t, 40, 5, 60)
	reg := obs.NewRegistry()
	opt := Options{CertsPerShard: 16, ScansPerShard: 2, VerifyDigests: true, Obs: reg}
	data := encodeV3(t, c, opt)
	if _, err := Read(bytes.NewReader(data), int64(len(data)), opt); err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"raw_bytes", "comp_bytes", "index_bytes"} {
		if enc, dec := reg.Counter("snapshot.encode."+what).Value(), reg.Counter("snapshot.decode."+what).Value(); enc != dec || enc == 0 {
			t.Fatalf("%s: encode %d, decode %d", what, enc, dec)
		}
	}
	if got := reg.Counter("snapshot.decode.digest_verify").Value(); got != 40 {
		t.Fatalf("digest_verify = %d, want 40", got)
	}
	if got := reg.Counter("snapshot.decode.certs").Value(); got != 40 {
		t.Fatalf("decode.certs = %d, want 40", got)
	}
	if got := reg.Counter("snapshot.decode.v3").Value(); got != 1 {
		t.Fatalf("decode.v3 = %d, want 1", got)
	}
}
