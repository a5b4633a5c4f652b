package truststore

import (
	"fmt"
	"sync"
	"testing"

	"securepki/internal/x509lite"
)

// The chain cache must resolve a shared issuer's upward path once and reuse
// it for every leaf, without changing any classification.
func TestChainCacheSharedIssuer(t *testing.T) {
	root := makeCA(t, 0x50, "Cache Root")
	inter := signCA(t, 0x51, "Cache Inter", root)
	s := NewStore()
	s.AddRoot(root.cert)
	s.AddIntermediate(inter.cert)

	for i := 0; i < 20; i++ {
		leaf := makeLeaf(t, byte(0x60+i), fmt.Sprintf("leaf-%d.example", i), inter, nil)
		if got := s.Verify(leaf); got != Valid {
			t.Fatalf("leaf %d: status = %v", i, got)
		}
	}
	s.chainMu.Lock()
	entries := len(s.chainUp)
	s.chainMu.Unlock()
	if entries != 1 {
		t.Errorf("chain cache holds %d entries, want exactly 1 (the shared intermediate)", entries)
	}
}

// Negative results are memoized too, and adding new trust material must
// invalidate them: an orphan intermediate becomes chainable once its parent
// is pooled.
func TestChainCacheInvalidatedByAdds(t *testing.T) {
	root := makeCA(t, 0x70, "Inval Root")
	mid := signCA(t, 0x71, "Inval Mid", root)
	inter := signCA(t, 0x72, "Inval Inter", mid)
	leaf := makeLeaf(t, 0x73, "inval.example", inter, nil)

	s := NewStore()
	s.AddRoot(root.cert)
	s.AddIntermediate(inter.cert) // mid is missing: chain cannot complete
	if got := s.Verify(leaf); got != UntrustedIssuer {
		t.Fatalf("before pooling mid: %v", got)
	}
	s.AddIntermediate(mid.cert) // must flush the cached negative entry
	if got := s.Verify(leaf); got != Valid {
		t.Fatalf("after pooling mid: %v", got)
	}
}

// Re-adding a pooled certificate is a no-op: the store neither grows nor
// drops its memoized chains (re-validation of a corpus depends on this).
func TestAddIntermediateIdempotent(t *testing.T) {
	root := makeCA(t, 0x74, "Idem Root")
	inter := signCA(t, 0x75, "Idem Inter", root)
	leaf := makeLeaf(t, 0x76, "idem.example", inter, nil)

	s := NewStore()
	s.AddRoot(root.cert)
	s.AddIntermediate(inter.cert)
	if s.Verify(leaf) != Valid {
		t.Fatal("leaf did not validate")
	}
	s.chainMu.Lock()
	cached := len(s.chainUp)
	s.chainMu.Unlock()

	for i := 0; i < 3; i++ {
		s.AddIntermediate(inter.cert)
		s.AddRoot(root.cert)
	}
	if got := s.NumIntermediates(); got != 1 {
		t.Errorf("NumIntermediates = %d after duplicate adds, want 1", got)
	}
	if got := s.NumRoots(); got != 1 {
		t.Errorf("NumRoots = %d after duplicate adds, want 1", got)
	}
	s.chainMu.Lock()
	after := len(s.chainUp)
	s.chainMu.Unlock()
	if after != cached {
		t.Errorf("duplicate adds flushed the chain cache (%d -> %d entries)", cached, after)
	}
}

// Concurrent Verify calls share the cache safely and agree with the serial
// answer (run under -race via the Makefile's check target).
func TestConcurrentVerify(t *testing.T) {
	root := makeCA(t, 0x80, "Conc Root")
	inter := signCA(t, 0x81, "Conc Inter", root)
	s := NewStore()
	s.AddRoot(root.cert)
	s.AddIntermediate(inter.cert)

	population := make([]*x509lite.Certificate, 32)
	want := make([]Status, len(population))
	for i := range population {
		if i%2 == 0 {
			population[i] = makeLeaf(t, byte(0x90+i), fmt.Sprintf("conc-%d.example", i), inter, nil)
			want[i] = Valid
		} else {
			population[i] = makeSelfSigned(t, byte(0x90+i), fmt.Sprintf("conc-%d.self", i), nil)
			want[i] = SelfSigned
		}
	}
	got := make([]Status, len(population))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(population); i += 4 {
				got[i] = s.Verify(population[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range population {
		if got[i] != want[i] {
			t.Errorf("cert %d: status = %v, want %v", i, got[i], want[i])
		}
	}
}
