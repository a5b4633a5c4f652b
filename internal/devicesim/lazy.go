package devicesim

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"sync"

	"securepki/internal/stats"
	"securepki/internal/x509lite"
)

// Lazy materialization. A host's reissue makes every random draw at once,
// in the generator's historical order, and records the results in a
// template. What remains — deriving the key from its drawn seed, signing,
// re-parsing and the frankencert rewrite — is a pure function of those
// draws, so it waits behind a sync.Once until a scan (Appearances) or a
// caller (CurrentCert, ExtractDeviceKey) first needs it. A certificate no
// scan returns is then never signed, a fleet's members share the leader's
// one signature, and signing runs in the parallel scan sweep rather than
// the serial generate stage, all without moving an output byte.

// lazyKey is an Ed25519 key pair whose seed has been drawn and whose
// derivation runs on first use, once.
type lazyKey struct {
	seed [ed25519.SeedSize]byte
	once sync.Once
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// drawKey draws a key seed from r: four Uint64s, little-endian.
func drawKey(r *stats.RNG) *lazyKey {
	k := &lazyKey{}
	for i := 0; i < len(k.seed); i += 8 {
		binary.LittleEndian.PutUint64(k.seed[i:], r.Uint64())
	}
	return k
}

// pair derives the key on first use, counting the derivation on w.
func (k *lazyKey) pair(w *World) (ed25519.PublicKey, ed25519.PrivateKey) {
	k.once.Do(func() {
		w.keygens.Add(1)
		k.priv = ed25519.NewKeyFromSeed(k.seed[:])
		k.pub = k.priv.Public().(ed25519.PublicKey)
	})
	return k.pub, k.priv
}

// pendingCert is a host certificate whose draws are all made and whose
// signing runs on first use, once. Concurrent first uses (fleet members
// swept by different workers) share one signature and one pointer.
type pendingCert struct {
	once sync.Once
	cert *x509lite.Certificate

	// The drawn inputs, released once the certificate is signed.
	w      *World
	tmpl   *x509lite.Template
	key    *lazyKey           // subject key
	signer ed25519.PrivateKey // issuing key; nil when key signs its own certificate
	device int                // device ID keying the frankencert rewrite; -1 for sites, which never mutate
}

// get returns the certificate, signing it on first use.
func (p *pendingCert) get() *x509lite.Certificate {
	p.once.Do(func() {
		pub, priv := p.key.pair(p.w)
		signer := p.signer
		if signer == nil {
			signer = priv
		}
		cert := p.w.mustCreate(p.tmpl, pub, signer)
		// Mutation is keyed by device ID, so the decision and the operator
		// survive reissues, and fleet members inherit the leader's mutated
		// certificate with the rest of it.
		if m := p.w.mutator; m != nil && p.device >= 0 {
			mutated, err := m.Rewrite(p.device, cert)
			if err != nil {
				// Population-class operators guarantee parseability over any
				// x509lite-built certificate; failing here is a mutator bug.
				panic(fmt.Sprintf("devicesim: %v", err))
			}
			cert = mutated
		}
		p.cert = cert
		p.w, p.tmpl, p.key, p.signer = nil, nil, nil, nil
	})
	return p.cert
}
