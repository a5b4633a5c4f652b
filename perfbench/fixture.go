package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"sort"

	"securepki/internal/core"
	"securepki/internal/snapshot"
	"securepki/internal/x509lite"
)

// fixture is the table of expected answers the query phase draws its keys
// from. It comes from the resident pipeline's in-memory corpus and lint
// results, so every certquery answer is checked against data that never
// went through the snapshot writer or querystore.
type fixture struct {
	Certs    []x509lite.Fingerprint // corpus ID order, which is snapshot shard order
	SPKIs    []x509lite.Fingerprint // SPKIs[i] is the key of Certs[i]
	Findings []int                  // Findings[i] is the number of lint findings on Certs[i]
	IPs      []uint32               // every observed IP, ascending
	IPCert   []int                  // IPCert[i] indexes a certificate IPs[i] served
	ASNs     []int                  // every AS holding an observation, ascending
	ASCert   []int                  // ASCert[i] indexes a certificate observed in ASNs[i]
	// CertsPerShard is the served snapshot's certificate-shard size; the
	// runner reads it from the snapshot header.
	CertsPerShard int
}

func newFixture(p *core.Pipeline) *fixture {
	fx := &fixture{}
	findings := make(map[x509lite.Fingerprint]int, len(p.LintResults))
	for _, cf := range p.LintResults {
		findings[cf.Fingerprint] = len(cf.Findings)
	}
	for _, rec := range p.Corpus.Certs() {
		fp := rec.Cert.Fingerprint()
		fx.Certs = append(fx.Certs, fp)
		fx.SPKIs = append(fx.SPKIs, rec.Cert.PublicKeyFingerprint())
		fx.Findings = append(fx.Findings, findings[fp])
	}
	asOf := snapshot.InternetASOf(p.World.Internet)
	ips, asns := map[uint32]int{}, map[int]int{}
	for _, sc := range p.Corpus.Scans() {
		for _, o := range sc.Obs {
			if _, ok := ips[uint32(o.IP)]; !ok {
				ips[uint32(o.IP)] = int(o.Cert)
			}
			if asn, ok := asOf(o.IP, sc.Time); ok {
				if _, seen := asns[asn]; !seen {
					asns[asn] = int(o.Cert)
				}
			}
		}
	}
	for ip := range ips {
		fx.IPs = append(fx.IPs, ip)
	}
	sort.Slice(fx.IPs, func(i, j int) bool { return fx.IPs[i] < fx.IPs[j] })
	for _, ip := range fx.IPs {
		fx.IPCert = append(fx.IPCert, ips[ip])
	}
	for asn := range asns {
		fx.ASNs = append(fx.ASNs, asn)
	}
	sort.Ints(fx.ASNs)
	for _, asn := range fx.ASNs {
		fx.ASCert = append(fx.ASCert, asns[asn])
	}
	return fx
}

func writeFixture(path string, fx *fixture) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(fx); err != nil {
		f.Close()
		return fmt.Errorf("write fixture: %w", err)
	}
	return f.Close()
}

// readFixture loads the fixture and sizes its shards from the snapshot it
// describes.
func readFixture(path, corpus string) (*fixture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fx := &fixture{}
	if err := gob.NewDecoder(f).Decode(fx); err != nil {
		return nil, fmt.Errorf("read fixture: %w", err)
	}
	c, err := os.Open(corpus)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	fi, err := c.Stat()
	if err != nil {
		return nil, err
	}
	lay, err := snapshot.ReadV3Layout(c, fi.Size())
	if err != nil {
		return nil, err
	}
	if lay.CertShards == 0 || int(lay.CertCount) != len(fx.Certs) {
		return nil, fmt.Errorf("snapshot holds %d certs in %d shards, fixture %d certs", lay.CertCount, lay.CertShards, len(fx.Certs))
	}
	fx.CertsPerShard = int((lay.CertCount + uint64(lay.CertShards) - 1) / uint64(lay.CertShards))
	return fx, nil
}
