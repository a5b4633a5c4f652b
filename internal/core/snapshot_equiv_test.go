package core

import (
	"bytes"
	"testing"
)

// The snapshot golden contract: a pipeline whose corpus went through a
// snapshot round trip — decoded serially or in parallel — must produce a
// byte-identical JSON analysis summary to the pipeline that never left
// memory. Ground truth is dropped by serialisation
// on every path, so the in-memory reference drops it too (nil Truth
// evaluations degrade to zeros deterministically).
func TestSnapshotLoadEquivalence(t *testing.T) {
	cfg := equivConfig()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Truth = nil
	ref.Link() // re-link not needed, but keep artefacts consistent post-Truth drop
	ref.Track()
	var want bytes.Buffer
	if err := Summarize(ref).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	var v3 bytes.Buffer
	if err := ref.WriteSnapshotV3(&v3); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		data    []byte
		workers int
	}{
		{"v3-serial", v3.Bytes(), 1},
		{"v3-parallel", v3.Bytes(), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Pipeline{Config: cfg}
			p.Config.Workers = tc.workers
			if err := p.Generate(); err != nil {
				t.Fatal(err)
			}
			if err := p.LoadSnapshot(bytes.NewReader(tc.data), int64(len(tc.data))); err != nil {
				t.Fatal(err)
			}
			if p.Truth != nil {
				t.Fatal("LoadSnapshot must leave Truth nil")
			}
			p.Validate()
			p.Link()
			p.Track()
			var got bytes.Buffer
			if err := Summarize(p).WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("summary after %s load is not byte-identical to the in-memory run", tc.name)
			}
		})
	}
}
