package scanstore_test

import (
	"testing"

	"securepki/internal/core"
	"securepki/internal/scanstore"
)

// The index of a scanned SmallConfig corpus — repeated sightings,
// renumbered hosts, certificates served from many addresses — matches the
// per-certificate reference at one worker and at eight.
func TestIndexMatchesReferenceSmallConfig(t *testing.T) {
	p := &core.Pipeline{Config: core.SmallConfig()}
	if err := p.Generate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		scanstore.CheckIndexAgainstReference(t, p.Corpus, workers)
	}
}
