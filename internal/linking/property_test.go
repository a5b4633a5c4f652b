package linking

import (
	"testing"

	"securepki/internal/scanstore"
)

// Invariants of the full linking pipeline over the generated corpus.

func TestLinkInvariants(t *testing.T) {
	ds, _ := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	res := l.Link()

	// 1. Determinism: relinking yields the identical result.
	res2 := l.Link()
	if len(res.Groups) != len(res2.Groups) || res.LinkedCerts != res2.LinkedCerts {
		t.Fatal("Link is nondeterministic")
	}
	for i := range res.Groups {
		if res.Groups[i].Value != res2.Groups[i].Value || len(res.Groups[i].Certs) != len(res2.Groups[i].Certs) {
			t.Fatal("Link group order is nondeterministic")
		}
	}

	// 2. Every group has >= 2 certs, all eligible, all invalid.
	for _, g := range res.Groups {
		if len(g.Certs) < 2 {
			t.Fatalf("group of %d certs", len(g.Certs))
		}
		for _, id := range g.Certs {
			if !l.IsEligible(id) {
				t.Fatal("ineligible cert in a group")
			}
			if !ds.Corpus.Cert(id).Status.Invalid() {
				t.Fatal("valid cert in a group")
			}
		}
	}

	// 3. Accounting: LinkedCerts equals the sum of group sizes, and no cert
	// repeats across groups.
	seen := map[scanstore.CertID]bool{}
	total := 0
	for _, g := range res.Groups {
		total += len(g.Certs)
		for _, id := range g.Certs {
			if seen[id] {
				t.Fatal("cert in two groups")
			}
			seen[id] = true
		}
	}
	if total != res.LinkedCerts {
		t.Fatalf("LinkedCerts = %d, sum of groups = %d", res.LinkedCerts, total)
	}

	// 4. Within every group, the lifetime-overlap rule holds pairwise.
	for _, g := range res.Groups {
		type span struct{ first, last int }
		spans := make([]span, 0, len(g.Certs))
		for _, id := range g.Certs {
			scans := ds.Index.ScansSeen(id)
			spans = append(spans, span{int(scans[0]), int(scans[len(scans)-1])})
		}
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				lo := spans[i].first
				if spans[j].first > lo {
					lo = spans[j].first
				}
				hi := spans[i].last
				if spans[j].last < hi {
					hi = spans[j].last
				}
				if hi >= lo && hi-lo+1 > DefaultConfig().MaxOverlapScans {
					t.Fatalf("group %q violates the overlap rule: spans %v %v", g.Value, spans[i], spans[j])
				}
			}
		}
	}

	// 5. Field-order invariance of accounting: a group's feature is one of
	// the accepted fields.
	accepted := map[Feature]bool{}
	for _, f := range res.FieldOrder {
		accepted[f] = true
	}
	for _, g := range res.Groups {
		if !accepted[g.Feature] {
			t.Fatalf("group linked on unaccepted field %v", g.Feature)
		}
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	ds, _ := generated(t)
	// Loosening the uniqueness threshold can only grow the eligible set.
	prev := -1
	for _, maxIPs := range []int{1, 2, 3, 5} {
		cfg := DefaultConfig()
		cfg.MaxIPsPerScan = maxIPs
		n := NewLinker(ds, cfg, 0, nil).EligibleCount()
		if n < prev {
			t.Fatalf("eligible count fell from %d to %d at threshold %d", prev, n, maxIPs)
		}
		prev = n
	}
}

func TestOverlapMonotonicity(t *testing.T) {
	ds, _ := generated(t)
	// Loosening the overlap tolerance can only grow the linked set for a
	// single-field linking pass.
	prev := -1
	for _, overlap := range []int{0, 1, 2, 3} {
		cfg := DefaultConfig()
		cfg.MaxOverlapScans = overlap
		l := NewLinker(ds, cfg, 0, nil)
		linked := 0
		for _, g := range l.LinkOn(FeaturePublicKey, nil) {
			linked += len(g.Certs)
		}
		if linked < prev {
			t.Fatalf("PK-linked count fell from %d to %d at overlap %d", prev, linked, overlap)
		}
		prev = linked
	}
}

func TestEvaluateAllConsistencyBounds(t *testing.T) {
	ds, _ := generated(t)
	l := NewLinker(ds, DefaultConfig(), 0, nil)
	for _, ev := range l.EvaluateAll() {
		for name, v := range map[string]float64{
			"IP": ev.IPConsistency, "/24": ev.S24Consistency, "AS": ev.ASConsistency,
		} {
			if v < 0 || v > 1 {
				t.Fatalf("%v %s consistency out of range: %v", ev.Feature, name, v)
			}
		}
		// Coarser aggregation can only raise consistency.
		if ev.TotalLinked > 0 {
			if ev.S24Consistency < ev.IPConsistency-1e-9 || ev.ASConsistency < ev.S24Consistency-1e-9 {
				t.Fatalf("%v consistency not monotone: %v %v %v",
					ev.Feature, ev.IPConsistency, ev.S24Consistency, ev.ASConsistency)
			}
		}
		if ev.UniquelyLinked > ev.TotalLinked {
			t.Fatalf("%v uniquely (%d) exceeds total (%d)", ev.Feature, ev.UniquelyLinked, ev.TotalLinked)
		}
	}
}
