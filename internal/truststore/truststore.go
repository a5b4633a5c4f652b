// Package truststore implements certificate-chain validation with the exact
// semantics the paper's pipeline used (§4.2):
//
//   - a configurable root store stands in for the OS X 10.9.2 store the
//     authors trusted;
//   - expiry is ignored — a certificate is "valid" if some client could ever
//     have validated it;
//   - intermediates harvested from the scans are pooled so chains can be
//     completed even when servers present broken chains ("transvalid"
//     certificates);
//   - self-signed certificates are detected by verifying the signature with
//     the certificate's own key, not just by comparing subject and issuer
//     (openssl only reports error 19 when the names match).
//
// The outcome is a Status that mirrors the paper's invalidity taxonomy:
// 88.0% self-signed, 11.99% untrusted issuer, 0.01% other (signature or
// version errors).
package truststore

import (
	"sync"
	"sync/atomic"

	"securepki/internal/x509lite"
)

// Status classifies the validation outcome of one certificate.
type Status int

// Validation outcomes, ordered so that Valid == 0.
const (
	// Valid: a signature chain exists from the certificate to a trusted
	// root (expiry intentionally ignored).
	Valid Status = iota
	// SelfSigned: the certificate verifies under its own public key and no
	// trusted chain exists. 88.0% of the paper's invalid certificates.
	SelfSigned
	// UntrustedIssuer: the certificate is signed by some other certificate
	// that does not chain to a trusted root (or names an issuer we never
	// observed). 11.99% of the paper's invalid certificates.
	UntrustedIssuer
	// BadSignature: no candidate key (own, pooled, or trusted) verifies the
	// signature — the "signature errors" sliver of the paper's 0.01%.
	BadSignature
	// BadVersion: the certificate advertises an X.509 version other than 1
	// or 3 (the corpus contained versions 2, 4 and 13); the paper discards
	// these before analysis.
	BadVersion
)

// String returns the classification label used in reports.
func (s Status) String() string {
	switch s {
	case Valid:
		return "valid"
	case SelfSigned:
		return "self-signed"
	case UntrustedIssuer:
		return "untrusted-issuer"
	case BadSignature:
		return "bad-signature"
	case BadVersion:
		return "bad-version"
	case Expired:
		return "expired"
	default:
		return "unknown"
	}
}

// Invalid reports whether the status is any of the invalid classes.
func (s Status) Invalid() bool { return s != Valid }

// Result carries the validation outcome and, when a trusted chain was found,
// the chain from leaf to root.
type Result struct {
	Status Status
	// Chain is the verified path (leaf first, root last); nil unless Valid.
	Chain []*x509lite.Certificate
}

// maxChainDepth bounds path building; real web PKI chains are ≤5 deep, and
// the bound also defends against signature loops among pooled intermediates.
const maxChainDepth = 8

// Store holds trusted roots and an intermediate pool and validates leaves
// against them. It is not safe for concurrent mutation; concurrent Verify
// calls after setup are safe (the chain cache takes its own lock).
type Store struct {
	roots        map[x509lite.Fingerprint]*x509lite.Certificate
	rootsByName  map[string][]*x509lite.Certificate
	inters       map[x509lite.Fingerprint]*x509lite.Certificate
	intersByName map[string][]*x509lite.Certificate

	// chainMu guards chainUp, the memoized issuer-side chain resolution:
	// issuer fingerprint → chain from that issuer to a trusted root (issuer
	// first), or nil when no such chain exists. Thousands of leaves share a
	// handful of CAs, so each CA's upward path is searched once instead of
	// per leaf. Entries are pure functions of the store's contents (the DFS
	// is deterministic), so concurrent fills always agree; any mutation of
	// the root/intermediate sets drops the whole cache.
	chainMu sync.Mutex
	chainUp map[x509lite.Fingerprint][]*x509lite.Certificate
	// chainHits/chainMisses count memo lookups (guarded by chainMu). Misses
	// are deterministic — exactly one per distinct issuer fingerprint, since
	// the first lookup fills the entry under the lock — so ChainCacheStats
	// is worker-count-independent between cache flushes.
	chainHits   uint64
	chainMisses uint64

	// verifies counts the signature checks Verify has run: every chain
	// check against a candidate parent, plus each self-check that was not
	// a read of the certificate's stored verdict.
	verifies atomic.Int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		roots:        make(map[x509lite.Fingerprint]*x509lite.Certificate),
		rootsByName:  make(map[string][]*x509lite.Certificate),
		inters:       make(map[x509lite.Fingerprint]*x509lite.Certificate),
		intersByName: make(map[string][]*x509lite.Certificate),
		chainUp:      make(map[x509lite.Fingerprint][]*x509lite.Certificate),
	}
}

// ChainCacheStats reports memoized-chain lookups since the store was
// created: hits found an entry, misses ran the DFS and filled one. The
// counts survive cache flushes (they meter lookups, not entries).
func (s *Store) ChainCacheStats() (hits, misses uint64) {
	s.chainMu.Lock()
	defer s.chainMu.Unlock()
	return s.chainHits, s.chainMisses
}

// Verifies reports the signature checks the store has run since it was
// created. It depends only on which certificates were verified, not on how
// many goroutines verified them: the chain memo fills once per issuer under
// its lock, and a self-check runs once per certificate provided no two
// goroutines verify the same certificate at once (Corpus.Validate never
// does).
func (s *Store) Verifies() int64 { return s.verifies.Load() }

// signedBy reports whether parent's key signed c, counting the check.
func (s *Store) signedBy(c, parent *x509lite.Certificate) bool {
	s.verifies.Add(1)
	return c.CheckSignatureFrom(parent) == nil
}

// dropChainCache forgets every memoized chain; called when the trust material
// changes so stale negative (and positive) entries cannot leak.
func (s *Store) dropChainCache() {
	s.chainMu.Lock()
	s.chainUp = make(map[x509lite.Fingerprint][]*x509lite.Certificate)
	s.chainMu.Unlock()
}

// AddRoot installs a trusted root. Duplicate fingerprints are ignored
// without touching the store (idempotent), so re-running validation over a
// corpus neither grows the store nor invalidates the chain cache.
func (s *Store) AddRoot(c *x509lite.Certificate) {
	fp := c.Fingerprint()
	if _, ok := s.roots[fp]; ok {
		return
	}
	s.roots[fp] = c
	name := c.Subject.String()
	s.rootsByName[name] = append(s.rootsByName[name], c)
	s.dropChainCache()
}

// AddIntermediate pools a CA certificate observed in the scans so that
// transvalid chains can be completed. Duplicate fingerprints are ignored
// without touching the store (idempotent): Corpus.Validate pools every
// CA-flagged certificate on each call, and re-validation must not re-add
// them or flush the memoized chains.
func (s *Store) AddIntermediate(c *x509lite.Certificate) {
	fp := c.Fingerprint()
	if _, ok := s.inters[fp]; ok {
		return
	}
	s.inters[fp] = c
	name := c.Subject.String()
	s.intersByName[name] = append(s.intersByName[name], c)
	s.dropChainCache()
}

// NumRoots reports the number of installed roots (the paper's store had 222).
func (s *Store) NumRoots() int { return len(s.roots) }

// NumIntermediates reports the size of the transvalid completion pool.
func (s *Store) NumIntermediates() int { return len(s.inters) }

// IsRoot reports whether the exact certificate is a trusted root.
func (s *Store) IsRoot(c *x509lite.Certificate) bool {
	_, ok := s.roots[c.Fingerprint()]
	return ok
}

// Verify classifies a certificate per the paper's §4.2 procedure.
func (s *Store) Verify(c *x509lite.Certificate) Result {
	if c.Version != 1 && c.Version != 3 {
		return Result{Status: BadVersion}
	}
	if s.IsRoot(c) {
		return Result{Status: Valid, Chain: []*x509lite.Certificate{c}}
	}
	if chain := s.trustedChain(c); chain != nil {
		return Result{Status: Valid, Chain: chain}
	}
	// No trusted chain: distinguish the invalid classes.
	selfSigned, checked := c.SelfSignedVerdict()
	if checked {
		s.verifies.Add(1)
	}
	if selfSigned {
		return Result{Status: SelfSigned}
	}
	if s.signedByAnyKnown(c) {
		return Result{Status: UntrustedIssuer}
	}
	// Issuer unknown: the signature may be fine under a key we never saw,
	// or broken outright. Without the issuer's key these are
	// indistinguishable; the paper's openssl run reports both under its
	// residual 0.01%. A self-issued name with a failing self-check is a
	// definite signature error.
	if c.SelfIssued() {
		return Result{Status: BadSignature}
	}
	return Result{Status: UntrustedIssuer}
}

// trustedChain finds a signature path from c to a trusted root (c first), or
// nil. The leaf's own signature is checked against every candidate parent —
// that work is per-certificate and cannot be shared — but the parent's path
// to a root is resolved through the memoized chainFrom, so a CA that signed
// thousands of leaves has its upward chain built exactly once.
func (s *Store) trustedChain(c *x509lite.Certificate) []*x509lite.Certificate {
	issuerName := c.Issuer.String()
	for _, root := range s.rootsByName[issuerName] {
		if s.signedBy(c, root) {
			return []*x509lite.Certificate{c, root}
		}
	}
	leafFP := c.Fingerprint()
	for _, inter := range s.intersByName[issuerName] {
		fp := inter.Fingerprint()
		if fp == leafFP {
			continue // the leaf itself, pooled as a CA, is not its own parent
		}
		if !s.signedBy(c, inter) {
			continue
		}
		up := s.chainFrom(inter, fp)
		if up == nil {
			continue
		}
		if chainContains(up, leafFP) {
			// The memoized path loops back through the leaf, which the
			// per-leaf search must exclude (only possible when two certs
			// share a key). Fall back to the exact per-leaf DFS.
			return s.buildChain(c, 0, map[x509lite.Fingerprint]bool{leafFP: true})
		}
		return append([]*x509lite.Certificate{c}, up...)
	}
	return nil
}

// chainFrom memoizes the path from a pooled parent certificate to a trusted
// root (parent first; nil when none exists). Negative results are cached too:
// a certificate that cannot reach a root from a fresh search cannot reach it
// as part of any leaf's chain either, because path existence depends only on
// the certificate itself (see the note in buildChain).
func (s *Store) chainFrom(parent *x509lite.Certificate, fp x509lite.Fingerprint) []*x509lite.Certificate {
	s.chainMu.Lock()
	defer s.chainMu.Unlock()
	if chain, ok := s.chainUp[fp]; ok {
		s.chainHits++
		return chain
	}
	s.chainMisses++
	var chain []*x509lite.Certificate
	if s.IsRoot(parent) {
		chain = []*x509lite.Certificate{parent}
	} else {
		chain = s.buildChain(parent, 0, map[x509lite.Fingerprint]bool{fp: true})
	}
	s.chainUp[fp] = chain
	return chain
}

func chainContains(chain []*x509lite.Certificate, fp x509lite.Fingerprint) bool {
	for _, link := range chain {
		if link.Fingerprint() == fp {
			return true
		}
	}
	return false
}

// buildChain searches depth-first for a signature path from c to a trusted
// root, returning the chain (c first) or nil.
func (s *Store) buildChain(c *x509lite.Certificate, depth int, visited map[x509lite.Fingerprint]bool) []*x509lite.Certificate {
	if depth >= maxChainDepth {
		return nil
	}
	issuerName := c.Issuer.String()
	for _, root := range s.rootsByName[issuerName] {
		if s.signedBy(c, root) {
			return []*x509lite.Certificate{c, root}
		}
	}
	for _, inter := range s.intersByName[issuerName] {
		fp := inter.Fingerprint()
		if visited[fp] {
			continue
		}
		if !s.signedBy(c, inter) {
			continue
		}
		visited[fp] = true
		if rest := s.buildChain(inter, depth+1, visited); rest != nil {
			return append([]*x509lite.Certificate{c}, rest...)
		}
		// Leave visited set: a cert that cannot reach a root from here
		// cannot reach it via another path either (paths only depend on
		// the cert itself).
	}
	return nil
}

// signedByAnyKnown reports whether any pooled certificate's key verifies c's
// signature (i.e. c was genuinely signed by another, untrusted certificate).
func (s *Store) signedByAnyKnown(c *x509lite.Certificate) bool {
	for _, inter := range s.intersByName[c.Issuer.String()] {
		if s.signedBy(c, inter) {
			return true
		}
	}
	return false
}
