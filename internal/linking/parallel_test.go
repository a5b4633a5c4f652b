package linking

import (
	"reflect"
	"testing"
)

// Every linker output must be identical between Workers=1 and any parallel
// worker count — group sets, field scores, orderings, the lot.
func TestLinkerSerialParallelEquivalence(t *testing.T) {
	ds, _ := generated(t)

	serial := NewLinker(ds, DefaultConfig(), 1, nil)

	for _, workers := range []int{2, 4, 0} {
		par := NewLinker(ds, DefaultConfig(), workers, nil)

		if serial.EligibleCount() != par.EligibleCount() ||
			serial.ExcludedShared() != par.ExcludedShared() ||
			serial.InvalidTotal() != par.InvalidTotal() {
			t.Fatalf("workers=%d: population differs: (%d,%d,%d) vs (%d,%d,%d)",
				workers,
				serial.EligibleCount(), serial.ExcludedShared(), serial.InvalidTotal(),
				par.EligibleCount(), par.ExcludedShared(), par.InvalidTotal())
		}

		if !reflect.DeepEqual(serial.FeatureUniqueness(), par.FeatureUniqueness()) {
			t.Errorf("workers=%d: FeatureUniqueness differs", workers)
		}

		for _, f := range AllFeatures() {
			sg := serial.LinkOn(f, nil)
			pg := par.LinkOn(f, nil)
			if !reflect.DeepEqual(sg, pg) {
				t.Errorf("workers=%d: LinkOn(%v) differs: %d vs %d groups", workers, f, len(sg), len(pg))
			}
		}

		if !reflect.DeepEqual(serial.EvaluateAll(), par.EvaluateAll()) {
			t.Errorf("workers=%d: EvaluateAll differs", workers)
		}

		sres := serial.Link()
		pres := par.Link()
		if !reflect.DeepEqual(sres, pres) {
			t.Errorf("workers=%d: Link result differs (linked %d vs %d certs, %d vs %d groups)",
				workers, sres.LinkedCerts, pres.LinkedCerts, len(sres.Groups), len(pres.Groups))
		}

		if !reflect.DeepEqual(serial.EvaluateLifetimeChange(sres), par.EvaluateLifetimeChange(pres)) {
			t.Errorf("workers=%d: EvaluateLifetimeChange differs", workers)
		}
	}
}
