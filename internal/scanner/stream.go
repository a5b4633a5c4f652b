package scanner

import (
	"fmt"

	"securepki/internal/devicesim"
	"securepki/internal/netsim"
	"securepki/internal/x509lite"
)

// Streaming scan execution: instead of materialising every host and sweeping
// the whole population as one chunk (Run), StreamRun draws fixed-size host
// chunks from a devicesim.Generator and advances each chunk through the
// entire scan schedule, with the same sweep, before the next chunk exists.
// Host state is purely per-host, so chunk-major order visits exactly the
// state sequence the scan-major sweep does; the two serial dependencies that
// are NOT per-host are carried explicitly:
//
//   - every (scan, host) RNG is seeded from the GLOBAL host index, so worker
//     and chunk boundaries cannot shift a host's draw sequence;
//   - each scan's packet-loss RNG is consumed serially in global host order,
//     so one RNG per scan lives across all chunks and chunk k's draws for a
//     scan extend chunk k-1's.
//
// Certificates are numbered chunk-locally (a fingerprint map per chunk,
// never a global one), and each chunk records, per scan, the certificates
// first seen in that chunk at that scan plus the (local cert, IP)
// observations. The ChunkStore holds those records and counts the one being
// filled against its memory budget, spilling whole chunks past it, oldest
// first, as one checksummed extsort.SpillFile each. ChunkStore.Replay then
// streams the corpus scan-major — scan 0 across chunks 0..K, then scan 1, …
// — turning chunk-local numbers into corpus IDs through one cross-chunk
// fingerprint map, which reconstructs the exact global first-seen order of
// the in-memory path: that is what makes the streaming snapshot
// byte-identical to the resident one. Replay asks each chunk for its
// sections in increasing scan order, so a spilled chunk reads back as one
// sequential stream.

// newCert is one certificate first observed by a chunk at a given scan.
type newCert struct {
	FP   x509lite.Fingerprint
	SPKI x509lite.Fingerprint
	DER  []byte
}

// obsRec is one sighting: a chunk-local certificate index plus the
// advertising IP (netsim.IP, stored raw).
type obsRec struct {
	Local uint32
	IP    uint32
}

// StreamRun executes the full schedule over the generator's population,
// chunkSize hosts at a time (<= 0 means 8192), each chunk swept across
// workers goroutines (<= 0 means GOMAXPROCS), recording per-(chunk, scan)
// sections into store. The campaign must have been compiled over
// gen.World(). Ground truth is not captured on the streaming path.
func (c *Campaign) StreamRun(gen *devicesim.Generator, chunkSize, workers int, store *ChunkStore) error {
	if chunkSize <= 0 {
		chunkSize = 8192
	}
	if store.nScans != len(c.schedule) {
		return fmt.Errorf("scanner: chunk store sized for %d scans, campaign has %d", store.nScans, len(c.schedule))
	}
	// One loss RNG per scan, consumed across every chunk in host order.
	lossRNGs := c.lossRNGs()
	base := 0
	for {
		hosts := gen.Next(chunkSize)
		if hosts == nil {
			break
		}
		store.beginChunk()
		local := make(map[x509lite.Fingerprint]uint32)
		c.sweep(hosts, base, workers, lossRNGs, func(scan, _ int, cert *x509lite.Certificate, ip netsim.IP) {
			fp := cert.Fingerprint()
			id, ok := local[fp]
			if !ok {
				id = uint32(len(local))
				local[fp] = id
				store.addCert(scan, newCert{FP: fp, SPKI: cert.PublicKeyFingerprint(), DER: cert.Raw})
			}
			store.addObs(scan, obsRec{Local: id, IP: uint32(ip)})
		})
		if err := store.endChunk(); err != nil {
			return err
		}
		base += len(hosts)
	}
	return nil
}
